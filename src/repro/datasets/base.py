"""Dataset containers and mini-batch loading."""

from __future__ import annotations

import hashlib
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
        self._fingerprint: Optional[str] = None

    def fingerprint(self) -> str:
        """Stable content hash of this dataset (hex digest), cached after first use.

        Two datasets with identical images/labels share a fingerprint across
        processes and runs, which is what keys the parallel executor's
        per-worker shard cache: a client's shard is re-shipped only when its
        fingerprint changes (e.g. an in-between client concatenating its
        previous task's shard).  The digest is computed once and memoised —
        shards are treated as immutable once partitioned, so later in-place
        mutation of ``images``/``labels`` is not detected.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            for array in (self.images, self.labels):
                digest.update(str(array.shape).encode())
                digest.update(array.dtype.str.encode())
                digest.update(np.ascontiguousarray(array).data)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

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

    Yields ``(Tensor images, numpy labels)`` pairs.  Images stored in ``[0, 1]``
    are normalised to ``[-1, 1]`` (the usual zero-centred input range), and
    shuffling draws from the generator the caller passes, so runs stay
    deterministic: ``shuffle=True`` without an ``rng`` is refused rather than
    seeded from OS entropy.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 16,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
        normalize: bool = True,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if shuffle and rng is None:
            raise ValueError("shuffle=True needs an rng: an unseeded shuffle is not reproducible")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.normalize = normalize
        self._rng = rng

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[Tensor, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        end = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(0, end, self.batch_size):
            indices = order[start : start + self.batch_size]
            images, labels = self.dataset[indices]
            if self.normalize:
                images = images * 2.0 - 1.0
            yield Tensor(images), labels


__all__ = ["ArrayDataset", "DataLoader"]
