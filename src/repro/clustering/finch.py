"""FINCH: parameter-free clustering by first-neighbour relations.

Re-implementation of Sarfraz et al., *"Efficient Parameter-free Clustering
Using First Neighbor Relations"* (CVPR 2019), which the paper adopts for
server-side global prompt clustering because it needs no cluster-count
hyper-parameter and is cheap enough for a dynamic FL environment.

The core idea (paper Eq. 7): build an adjacency matrix that links sample
``m`` and ``j`` whenever one is the (cosine) first neighbour of the other or
they share a first neighbour, then take connected components as clusters.
FINCH recurses on the cluster means to build a hierarchy of successively
coarser partitions; RefFiL uses the first (finest) partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class FinchResult:
    """Outcome of a FINCH run.

    Attributes
    ----------
    partitions:
        One integer label array per hierarchy level (finest first); labels are
        contiguous from 0.
    num_clusters:
        Number of clusters at each hierarchy level.
    centroids:
        Mean feature vector of every cluster in the finest partition.
    """

    partitions: List[np.ndarray] = field(default_factory=list)
    num_clusters: List[int] = field(default_factory=list)
    centroids: Optional[np.ndarray] = None

    @property
    def finest(self) -> np.ndarray:
        if not self.partitions:
            raise ValueError("FINCH produced no partitions")
        return self.partitions[0]


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


def _cluster_means(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean feature vector per cluster label (labels assumed contiguous from 0)."""
    num_clusters = int(labels.max()) + 1
    means = np.zeros((num_clusters, features.shape[1]))
    for cluster in range(num_clusters):
        means[cluster] = features[labels == cluster].mean(axis=0)
    return means


def finch(features: np.ndarray, max_levels: int = 5) -> FinchResult:
    """Run FINCH clustering on row-vector ``features``.

    Parameters
    ----------
    features:
        Array of shape ``(n_samples, dim)``.
    max_levels:
        Safety bound on the number of recursive merge levels.

    Returns
    -------
    :class:`FinchResult` with the partition hierarchy (finest first).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    result = FinchResult()
    if n == 0:
        result.centroids = np.zeros((0, features.shape[1] if features.ndim == 2 else 0))
        return result
    if n == 1:
        result.partitions.append(np.zeros(1, dtype=np.int64))
        result.num_clusters.append(1)
        result.centroids = features.copy()
        return result

    current_features = features
    mapping = np.arange(n)
    for _ in range(max_levels):
        adjacency = first_neighbor_adjacency(current_features)
        cluster_labels = _connected_components(adjacency)
        sample_labels = cluster_labels[mapping]
        num_clusters = int(cluster_labels.max()) + 1
        if result.num_clusters and num_clusters >= result.num_clusters[-1]:
            break
        result.partitions.append(sample_labels)
        result.num_clusters.append(num_clusters)
        if num_clusters <= 2:
            break
        current_features = _cluster_means(current_features, cluster_labels)
        mapping = cluster_labels[mapping]
    result.centroids = _cluster_means(features, result.finest)
    return result


__all__ = ["finch", "first_neighbor_adjacency", "FinchResult"]
