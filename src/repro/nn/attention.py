"""Multi-head class attention and the transformer attention block.

The RefFiL backbone (paper Sec. II, Eq. 1-3) tokenises the CNN feature map,
prepends a ``[CLS]`` token (and, during training, prompt tokens) and runs the
sequence through a single attention block consisting of multi-head
attention, an MLP, skip connections and layer normalisation, computed at the
``[CLS]`` row only, the one the classifier reads (CaiT's class attention, arXiv 2103.17239).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.nn.norm import LayerNorm


class ClassAttention(Module):
    """Multi-head scaled dot-product attention of the ``[CLS]`` row over every token.

    ``(batch, 1, dim)`` and ``(batch, tokens, dim)`` in, ``(batch, 1, dim)`` out.  A
    call is five ops: the query projection of ``cls``, the key and value ones of
    ``tokens``, one :func:`~repro.autograd.functional.attention` and ``proj``.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} must be divisible by num_heads {num_heads}")
        self.num_heads = num_heads
        self.scale = 1.0 / np.sqrt(dim // num_heads)
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def forward(self, cls: Tensor, tokens: Tensor) -> Tensor:
        q, k, v = self.query(cls), self.key(tokens), self.value(tokens)
        return self.proj(F.attention(q, k, v, self.num_heads, self.scale))


class TransformerBlock(Module):
    """One transformer encoder block (MHSA + MLP + residuals + LN) at the [CLS] row.

    This matches paper Eq. 2: ``I_{b+1} = LN(I'_b + I''_b)`` with
    ``I'_b = LN(MHSA(I_b))`` and ``I''_b = MLP(I'_b)``, at the one row Eq. 3
    classifies: ``(batch, tokens, dim)`` in, ``(batch, dim)`` out.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        mlp_ratio: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.attention = ClassAttention(dim, num_heads=num_heads, rng=rng)
        self.norm_attention = LayerNorm(dim)
        self.norm_out = LayerNorm(dim)
        hidden = max(int(dim * mlp_ratio), dim)
        self.mlp = MLP(dim, [hidden], dim, rng=rng)

    def forward(self, tokens: Tensor) -> Tensor:
        cls = tokens[:, :1]
        attended = self.norm_attention(self.attention(cls, tokens))
        out = self.norm_out(cls + attended + self.mlp(attended))  # residual + expanded
        return out.reshape(tokens.shape[0], tokens.shape[2])


__all__ = ["ClassAttention", "TransformerBlock"]
