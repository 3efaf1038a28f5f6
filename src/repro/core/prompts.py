"""Local prompt collection and the server-side global prompt store.

Client side (paper Eq. 5, Algorithm 1 lines 26-29): during the final local
epoch the client collects the prompts its CDAP generator produced for every
sample, averages them per class into its *Local Prompt Group* ``LPG_m`` (one
``d``-dimensional vector per class) and uploads that to the server.

Server side (Eq. 6-8, 11): the server gathers the ``LPG`` vectors of all
participating clients, clusters them per class with FINCH to obtain a set of
representative, domain-characteristic prompts ``\\hat{P}_g``, and also exposes
the per-class averages ``\\bar{P}_g`` used by the GPL loss.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.autograd.tensor import Tensor


class LocalPromptCollector:
    """Accumulates CDAP prompts per class and averages them into an LPG."""

    def __init__(self, embed_dim: int) -> None:
        self.embed_dim = embed_dim
        self._sums: Dict[int, np.ndarray] = {}
        self._counts: Dict[int, int] = {}

    def add_batch(self, prompts: Tensor, labels: np.ndarray) -> None:
        """Record a batch of generated prompts.

        ``prompts`` has shape ``(batch, prompt_length, embed_dim)``; each
        sample's prompt tokens are mean-pooled to a single ``d``-vector before
        accumulation (Eq. 5 averages prompts into one representative per
        class).
        """
        values = prompts.data
        if values.ndim != 3 or values.shape[-1] != self.embed_dim:
            raise ValueError(
                f"prompts must have shape (batch, p, {self.embed_dim}), got {values.shape}"
            )
        pooled = values.mean(axis=1)  # (batch, d)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != pooled.shape[0]:
            raise ValueError("labels and prompts batch size mismatch")
        for vector, label in zip(pooled, labels):
            key = int(label)
            if key not in self._sums:
                self._sums[key] = np.zeros(self.embed_dim)
                self._counts[key] = 0
            self._sums[key] += vector
            self._counts[key] += 1

    def __len__(self) -> int:
        return sum(self._counts.values())

    def local_prompt_group(self) -> Dict[int, np.ndarray]:
        """The client's LPG: one averaged prompt vector per class seen locally."""
        return {
            label: self._sums[label] / max(self._counts[label], 1)
            for label in self._sums
        }

    def to_payload(self) -> Dict[str, np.ndarray]:
        """The LPG as uploaded: ``labels`` (int64) and ``vectors`` rows, in first-seen class order."""
        group = self.local_prompt_group()
        return {
            "labels": np.fromiter(group, dtype=np.int64, count=len(group)),
            "vectors": np.stack(list(group.values())) if group else np.zeros((0, self.embed_dim)),
        }


def check_prompt_rows(labels: np.ndarray, counts: np.ndarray, vectors: np.ndarray) -> None:
    """Raise ``ValueError`` unless the distinct ``labels``' ``counts`` partition ``vectors``' rows.

    Prompt payloads arrive from the wire: a disagreement is refused, never truncated.
    """
    if (
        labels.ndim != 1
        or counts.shape != labels.shape
        or vectors.ndim != 2
        or (counts < 0).any()
        or counts.sum() != vectors.shape[0]
        or np.unique(labels).size != labels.size
    ):
        raise ValueError(
            f"prompt payload disagrees: labels {labels.tolist()}, counts {counts.tolist()}, "
            f"vectors {vectors.shape}"
        )


class GlobalPromptStore:
    """Server-side container of clustered, per-class representative prompts.

    ``representatives[k]`` is an array of shape ``(N_k, d)`` -- the FINCH
    cluster centroids of all clients' class-``k`` LPG vectors (Eq. 8).  The
    averaged global prompt matrix ``\\bar{P}_g`` of Eq. 11 stacks the per-class
    averages into a ``(num_classes, d)`` prompt-token matrix that the GPL loss
    feeds through the classifier alongside the feature map.
    """

    def __init__(self, num_classes: int, embed_dim: int) -> None:
        if num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        self.num_classes = num_classes
        self.embed_dim = embed_dim
        self.representatives: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def replace(self, representatives: Mapping[int, np.ndarray]) -> None:
        """Replace the store contents with freshly clustered representatives."""
        cleaned: Dict[int, np.ndarray] = {}
        for label, vectors in representatives.items():
            array = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
            if array.shape[-1] != self.embed_dim:
                raise ValueError(
                    f"class {label} prompts have dim {array.shape[-1]}, expected {self.embed_dim}"
                )
            if not 0 <= int(label) < self.num_classes:
                raise KeyError(f"class label {label} out of range [0, {self.num_classes})")
            cleaned[int(label)] = array
        self.representatives = cleaned

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(array.shape[0] for array in self.representatives.values())

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def class_prompts(self, label: int) -> np.ndarray:
        """All representative prompts of one class (possibly empty)."""
        return self.representatives.get(int(label), np.zeros((0, self.embed_dim)))

    def all_prompts(self) -> np.ndarray:
        """Every representative prompt stacked into ``(total, d)``."""
        if self.is_empty:
            return np.zeros((0, self.embed_dim))
        return np.concatenate(
            [self.representatives[label] for label in sorted(self.representatives)], axis=0
        )

    def prompt_labels(self) -> np.ndarray:
        """The class label of every row of :meth:`all_prompts`, in its order."""
        classes = sorted(self.representatives)
        counts = [self.representatives[label].shape[0] for label in classes]
        return np.repeat(np.asarray(classes, dtype=np.int64), counts)

    def prompts_excluding(self, label: int) -> np.ndarray:
        """Every representative prompt not belonging to ``label`` (DPCL negatives pool)."""
        others = [
            array
            for other, array in sorted(self.representatives.items())
            if other != int(label) and array.shape[0] > 0
        ]
        if not others:
            return np.zeros((0, self.embed_dim))
        return np.concatenate(others, axis=0)

    def averaged_prompt_matrix(self) -> Optional[np.ndarray]:
        """The GPL prompt tokens ``\\bar{P}_g`` of Eq. 11: one average per class.

        Classes with no representatives yet fall back to the overall mean so
        the matrix always has ``num_classes`` rows once any prompt exists.
        Returns ``None`` while the store is completely empty.
        """
        if self.is_empty:
            return None
        overall = self.all_prompts().mean(axis=0)
        matrix = np.tile(overall, (self.num_classes, 1))
        for label, array in self.representatives.items():
            if array.shape[0] > 0:
                matrix[label] = array.mean(axis=0)
        return matrix

    # ------------------------------------------------------------------ #
    # Serialisation (what actually travels over the "network")
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, np.ndarray]:
        """Serialise for broadcasting: int64 ``labels`` / ``counts`` in store order, rows in ``vectors``."""
        arrays = list(self.representatives.values())
        return {
            "labels": np.fromiter(self.representatives, dtype=np.int64, count=len(arrays)),
            "counts": np.asarray([array.shape[0] for array in arrays], dtype=np.int64),
            "vectors": np.concatenate(arrays) if arrays else np.zeros((0, self.embed_dim)),
        }

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, np.ndarray], num_classes: int, embed_dim: int
    ) -> "GlobalPromptStore":
        """Rebuild a store from a broadcast payload, splitting ``vectors`` by ``counts``."""
        labels, counts, vectors = (payload[key] for key in ("labels", "counts", "vectors"))
        check_prompt_rows(labels, counts, vectors)
        store = cls(num_classes, embed_dim)
        store.replace(dict(zip(labels.tolist(), np.split(vectors, np.cumsum(counts)[:-1]))))
        return store

    def payload_bytes(self) -> int:
        return sum(array.nbytes for array in self.representatives.values())


__all__ = ["LocalPromptCollector", "GlobalPromptStore", "check_prompt_rows"]
