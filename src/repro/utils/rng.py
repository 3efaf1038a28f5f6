"""Deterministic random-number management.

Every stochastic component in the reproduction (dataset synthesis, client
sampling, weight initialisation, local SGD shuffling) receives an explicit
``numpy.random.Generator`` derived from a single experiment seed, so whole
federated runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np


def spawn_rng(base_seed: int, *labels: Union[str, int]) -> np.random.Generator:
    """Derive an independent generator from a base seed and a label path.

    The labels (e.g. ``("client", 3, "task", 1)``) are hashed so that streams
    for different components never collide and do not depend on call order.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    derived = int.from_bytes(digest.digest()[:8], "little")
    return np.random.default_rng(derived)


__all__ = ["spawn_rng"]
