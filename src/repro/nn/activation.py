"""Activation-function modules."""

from __future__ import annotations

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


__all__ = ["GELU"]
