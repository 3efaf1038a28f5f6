"""FINCH: parameter-free clustering by first-neighbour relations.

Re-implementation of Sarfraz et al., *"Efficient Parameter-free Clustering
Using First Neighbor Relations"* (CVPR 2019), which the paper adopts for
server-side global prompt clustering because it needs no cluster-count
hyper-parameter and is cheap enough for a dynamic FL environment.

The core idea (paper Eq. 7): build an adjacency matrix that links sample
``m`` and ``j`` whenever one is the (cosine) first neighbour of the other or
they share a first neighbour, then take connected components as clusters.
FINCH can recurse on the cluster means to build a hierarchy of successively
coarser partitions; RefFiL uses only the first (finest) one, so that is all
this module computes.
"""

from __future__ import annotations

import numpy as np


def _cosine_first_neighbors(features: np.ndarray) -> np.ndarray:
    """Index of each sample's nearest neighbour by cosine similarity (excluding itself)."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    normalised = features / np.maximum(norms, 1e-12)
    similarity = normalised @ normalised.T
    np.fill_diagonal(similarity, -np.inf)
    return similarity.argmax(axis=1)


def first_neighbor_adjacency(features: np.ndarray) -> np.ndarray:
    """Symmetric FINCH adjacency matrix (paper Eq. 7).

    ``A[m, j] = 1`` iff ``j`` is the first neighbour of ``m``, or ``m`` is the
    first neighbour of ``j``, or ``m`` and ``j`` share the same first
    neighbour.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if n == 1:
        return np.ones((1, 1), dtype=np.int64)
    neighbors = _cosine_first_neighbors(features)
    adjacency = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    adjacency[rows, neighbors] = 1
    adjacency[neighbors, rows] = 1
    shared = neighbors[:, None] == neighbors[None, :]
    adjacency[shared] = 1
    np.fill_diagonal(adjacency, 1)
    return adjacency


def _connected_components(adjacency: np.ndarray) -> np.ndarray:
    """Label connected components of an undirected adjacency matrix."""
    n = adjacency.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            node = stack.pop()
            neighbors = np.flatnonzero(adjacency[node])
            for neighbor in neighbors:
                if labels[neighbor] == -1:
                    labels[neighbor] = current
                    stack.append(int(neighbor))
        current += 1
    return labels


def finch(features: np.ndarray) -> np.ndarray:
    """FINCH's first-neighbour partition of row-vector ``features``.

    ``features`` has shape ``(n_samples, dim)``; the result is one integer
    label per sample, contiguous from 0 (empty for no samples).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    return _connected_components(first_neighbor_adjacency(features))


__all__ = ["finch", "first_neighbor_adjacency"]
