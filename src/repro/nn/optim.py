"""The optimiser: the paper trains every method with SGD."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter

#: Heavy-ball momentum of every client step.
MOMENTUM = 0.9
#: Bound on the global gradient norm of every client step (the README's
#: fidelity section measures that it fires on most ``small`` steps).
MAX_GRAD_NORM = 5.0


class SGD:
    """Stochastic gradient descent with momentum ``MOMENTUM`` and a global
    gradient-norm clip at ``MAX_GRAD_NORM``."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._velocity: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def _clip_gradients(self) -> None:
        # Frozen params are skipped, consistent with step(): a stale grad left
        # on a parameter that was later frozen must neither inflate the global
        # norm nor be rescaled.
        total = 0.0
        for param in self.parameters:
            if param.grad is not None and param.requires_grad:
                total += float(np.sum(param.grad ** 2))
        norm = np.sqrt(total)
        if norm > MAX_GRAD_NORM:
            scale = MAX_GRAD_NORM / norm
            for param in self.parameters:
                if param.grad is not None and param.requires_grad:
                    param.grad *= scale

    def step(self) -> None:
        self._clip_gradients()
        for param in self.parameters:
            if param.grad is None or not param.requires_grad:
                continue
            velocity = self._velocity.get(id(param))
            if velocity is None:
                velocity = np.zeros_like(param.data)
            velocity = MOMENTUM * velocity + param.grad
            self._velocity[id(param)] = velocity
            param.data -= self.lr * velocity


__all__ = ["MAX_GRAD_NORM", "MOMENTUM", "SGD"]
