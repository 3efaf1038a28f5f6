"""The optimiser: the paper trains every method with SGD."""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from repro.nn.module import Parameter

#: Heavy-ball momentum of every client step.
MOMENTUM = 0.9
#: Bound on the global gradient norm of every client step (the README's
#: fidelity section measures that it fires on most ``small`` steps).
MAX_GRAD_NORM = 5.0


class SGD:
    """Stochastic gradient descent with momentum ``MOMENTUM`` and a global
    gradient-norm clip at ``MAX_GRAD_NORM``, stepping one flat buffer of which
    each ``Parameter.data`` becomes a view (in-place writes keep it live)."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        ids = [id(p) for p in self.parameters]
        dtypes = {p.data.dtype for p in self.parameters}
        if len(set(ids)) < len(ids) or len(dtypes) > 1:
            repeated = [i for i, key in enumerate(ids) if ids.count(key) > 1]
            dtypes = sorted(dtype.name for dtype in dtypes)
            raise ValueError(
                f"optimizer needs distinct parameters of one dtype: got dtypes {dtypes}, "
                f"one parameter repeated at positions {repeated}"
            )
        self.lr = float(lr)
        bounds = np.cumsum([0] + [p.data.size for p in self.parameters])
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._flat = np.concatenate([p.data.ravel() for p in self.parameters])
        for param, part in zip(self.parameters, self._slices):
            param.data = self._flat[part].reshape(param.data.shape)
        self._velocity = np.zeros_like(self._flat)
        self._grad = np.empty_like(self._flat)
        self._live = np.empty(self._flat.size, dtype=bool)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        # A param with no grad, or frozen (its stale grad must neither inflate
        # the norm nor move it), gathers any array of its length, then zeros.
        live = [p.grad is not None and p.requires_grad for p in self.parameters]
        np.concatenate(
            [p.grad.ravel() if ok else self._velocity[part]
             for p, ok, part in zip(self.parameters, live, self._slices)],
            out=self._grad,
        )
        where = True
        if not all(live):
            for ok, part in zip(live, self._slices):
                self._live[part] = ok
                if not ok:
                    self._grad[part] = 0
            where = self._live
        # Not BLAS ``dot``: its order follows the BLAS thread count (pool != serial).
        norm = np.sqrt(float(np.einsum("i,i->", self._grad, self._grad)))
        if norm > MAX_GRAD_NORM:
            self._grad *= MAX_GRAD_NORM / norm
        np.multiply(self._velocity, MOMENTUM, out=self._velocity, where=where)
        np.add(self._velocity, self._grad, out=self._velocity, where=where)
        np.multiply(self._velocity, self.lr, out=self._grad)  # the grad is spent
        np.subtract(self._flat, self._grad, out=self._flat, where=where)


__all__ = ["MAX_GRAD_NORM", "MOMENTUM", "SGD"]
