"""Gradient-based optimisers: the paper trains every method with SGD."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class holding a parameter list and a learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum, weight decay and optional Nesterov."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        super().__init__(parameters, lr)
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self.max_grad_norm = max_grad_norm
        self._velocity: Dict[int, np.ndarray] = {}

    def _clip_gradients(self) -> None:
        if self.max_grad_norm is None:
            return
        # Frozen params are skipped, consistent with step(): a stale grad left
        # on a parameter that was later frozen must neither inflate the global
        # norm nor be rescaled.
        total = 0.0
        for param in self.parameters:
            if param.grad is not None and param.requires_grad:
                total += float(np.sum(param.grad ** 2))
        norm = np.sqrt(total)
        if norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for param in self.parameters:
                if param.grad is not None and param.requires_grad:
                    param.grad *= scale

    def step(self) -> None:
        self._clip_gradients()
        for param in self.parameters:
            if param.grad is None or not param.requires_grad:
                continue
            grad = param.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * param.data
            if self.momentum > 0:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[id(param)] = velocity
                grad = grad + self.momentum * velocity if self.nesterov else velocity
            param.data -= self.lr * grad


__all__ = ["Optimizer", "SGD"]
