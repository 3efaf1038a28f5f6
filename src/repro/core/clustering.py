"""Global prompt clustering (paper Eq. 7-8).

The server receives one LPG vector per (client, class).  Directly averaging
them would wash out domain-characteristic structure when most clients are on
the new domain (the prompt-imbalance problem the paper describes), so the
prompts of each class are clustered with FINCH and each cluster contributes
one representative (its centroid).  Prompts from different domains are
unlikely to be cosine first-neighbours, so clusters align with domains.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from repro.clustering.finch import finch


def cluster_class_prompts(prompt_vectors: np.ndarray, max_representatives: int = 8) -> np.ndarray:
    """Cluster one class's prompt vectors and return cluster-centroid representatives.

    With fewer than three vectors clustering is meaningless and the vectors
    are returned unchanged.  ``max_representatives`` caps the number of
    representatives kept per class (most-populated clusters first) so the
    broadcast payload stays bounded as the federation grows.
    """
    prompt_vectors = np.atleast_2d(np.asarray(prompt_vectors, dtype=np.float64))
    if prompt_vectors.shape[0] <= 2:
        return prompt_vectors.copy()
    labels = finch(prompt_vectors)
    centroids = []
    sizes = []
    for cluster in range(int(labels.max()) + 1):
        members = prompt_vectors[labels == cluster]
        centroids.append(members.mean(axis=0))
        sizes.append(members.shape[0])
    order = np.argsort(-np.asarray(sizes))[:max_representatives]
    return np.stack([centroids[i] for i in order], axis=0)


def cluster_prompt_groups(
    prompt_groups: Sequence[Mapping[int, np.ndarray]],
    existing: Mapping[int, np.ndarray] | None = None,
    max_representatives: int = 8,
) -> Dict[int, np.ndarray]:
    """Cluster freshly uploaded LPGs (optionally together with existing representatives).

    Parameters
    ----------
    prompt_groups:
        One mapping per uploading client: class label -> LPG vector.
    existing:
        The store's current representatives.  Including them lets prompts from
        earlier domains survive rounds in which no old-domain client was
        selected -- this is what keeps the global prompt set *diverse across
        domains* rather than collapsing onto the newest one.
    max_representatives:
        Cap on representatives per class.

    Returns
    -------
    Mapping from class label to an array of representatives ``(N_k, d)``.
    """
    pooled: Dict[int, list] = {}
    for group in prompt_groups:
        for label, vector in group.items():
            pooled.setdefault(int(label), []).append(np.asarray(vector, dtype=np.float64))
    if existing:
        for label, array in existing.items():
            for vector in np.atleast_2d(array):
                pooled.setdefault(int(label), []).append(np.asarray(vector, dtype=np.float64))
    clustered: Dict[int, np.ndarray] = {}
    for label, vectors in pooled.items():
        stacked = np.stack(vectors, axis=0)
        clustered[label] = cluster_class_prompts(stacked, max_representatives=max_representatives)
    return clustered


__all__ = ["cluster_class_prompts", "cluster_prompt_groups"]
