"""Multi-layer perceptron block used in the attention block and the CDAP generator."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.activation import GELU
from repro.nn.linear import Linear
from repro.nn.module import Module, ModuleList


class MLP(Module):
    """A stack of ``Linear -> GELU`` layers.

    The final layer has no activation so the block can be used both as a
    transformer feed-forward network and as a projection head.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: Sequence[int],
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        dims = [in_features, *hidden_features, out_features]
        layers = []
        for index, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng=rng))
        self.layers = ModuleList(layers)
        self.activation = GELU()
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        total = len(self.layers)
        for index, layer in enumerate(self.layers):
            x = layer(x)
            if index < total - 1:
                x = self.activation(x)
        return x


__all__ = ["MLP"]
