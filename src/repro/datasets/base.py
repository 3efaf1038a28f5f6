"""Dataset containers and mini-batch loading."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, get_default_dtype


class ArrayDataset:
    """An in-memory dataset of images and integer labels.

    Images are stored as a float array of shape ``(N, C, H, W)`` in ``[0, 1]``
    and labels as an int array of shape ``(N,)``.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, dtype=None) -> None:
        images = np.asarray(images, dtype=dtype if dtype is not None else get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError(f"images must have shape (N, C, H, W), got {images.shape}")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} does not match images count {images.shape[0]}"
            )
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return self.images.shape[0]

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.images[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """Return a new dataset containing only ``indices`` (dtype preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(self.images[indices], self.labels[indices], dtype=self.images.dtype)

    @staticmethod
    def concatenate(datasets: Tuple["ArrayDataset", ...]) -> "ArrayDataset":
        """Concatenate several datasets (used when in-between clients merge tasks)."""
        datasets = tuple(d for d in datasets if len(d) > 0)
        if not datasets:
            raise ValueError("cannot concatenate zero non-empty datasets")
        images = np.concatenate([d.images for d in datasets], axis=0)
        labels = np.concatenate([d.labels for d in datasets], axis=0)
        return ArrayDataset(images, labels, dtype=images.dtype)


class DataLoader:
    """Mini-batch iterator over an :class:`ArrayDataset`.

    Yields ``(Tensor images, numpy labels)`` pairs, the last batch possibly
    short.  Images stored in ``[0, 1]`` are normalised to ``[-1, 1]`` (the
    usual zero-centred input range), and shuffling draws from the generator
    the caller passes, so runs stay deterministic: ``shuffle=True`` without
    an ``rng`` is refused rather than seeded from OS entropy.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 16,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if shuffle and rng is None:
            raise ValueError("shuffle=True needs an rng: an unseeded shuffle is not reproducible")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = rng

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[Tensor, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, n, self.batch_size):
            indices = order[start : start + self.batch_size]
            images, labels = self.dataset[indices]
            yield Tensor(images * 2.0 - 1.0), labels


__all__ = ["ArrayDataset", "DataLoader"]
