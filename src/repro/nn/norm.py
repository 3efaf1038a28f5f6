"""Normalisation layers: BatchNorm2d (parameters and buffers only) and LayerNorm."""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """The parameters and running buffers of batch normalisation over batch-last
    ``(C, H, W, N)`` feature maps.

    It has no forward of its own: batch norm runs inside the conv before it, as
    one :func:`repro.autograd.functional.conv_bn` op that reads ``weight``,
    ``bias``, ``running_mean``, ``running_var``, ``momentum``, ``eps`` and the
    module's ``training`` flag (see :class:`repro.models.resnet.BasicBlock`).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))


class LayerNorm(Module):
    """Layer normalisation over the last dimension (token embeddings)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


__all__ = ["BatchNorm2d", "LayerNorm"]
