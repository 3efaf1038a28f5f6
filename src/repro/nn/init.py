"""Weight initialisation helpers (deterministic given an explicit generator).

All initialisers return arrays in the active compute dtype
(:func:`repro.autograd.tensor.get_default_dtype`), so a model built under a
``default_dtype(np.float32)`` context is float32 end-to-end.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import get_default_dtype


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def kaiming_uniform(shape: Tuple[int, ...], fan_in: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He/Kaiming uniform initialisation suited to ReLU networks."""
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return _rng(rng).uniform(-bound, bound, size=shape).astype(get_default_dtype(), copy=False)


def normal(shape: Tuple[int, ...], std: float = 0.02, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Gaussian initialisation with the given standard deviation."""
    return _rng(rng).normal(0.0, std, size=shape).astype(get_default_dtype(), copy=False)


__all__ = ["kaiming_uniform", "normal"]
