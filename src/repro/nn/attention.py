"""Multi-head self-attention and the transformer attention block.

The RefFiL backbone (paper Sec. II, Eq. 1-3) tokenises the CNN feature map,
prepends a ``[CLS]`` token (and, during training, prompt tokens) and runs the
sequence through a single attention block consisting of multi-head
self-attention, an MLP, skip connections and layer normalisation.
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


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention over token sequences.

    Input and output shapes are ``(batch, tokens, dim)``.
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
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, tokens: int) -> Tensor:
        # (B, T, D) -> (B, H, T, Dh)
        return x.reshape(batch, tokens, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor) -> Tensor:
        batch, tokens, _ = x.shape
        q = self._split_heads(self.query(x), batch, tokens)
        k = self._split_heads(self.key(x), batch, tokens)
        v = self._split_heads(self.value(x), batch, tokens)
        scores = (q @ k.transpose(0, 1, 3, 2)) * self.scale
        weights = F.softmax(scores, axis=-1)
        context = weights @ v  # (B, H, T, Dh)
        context = context.transpose(0, 2, 1, 3).reshape(batch, tokens, self.dim)
        return self.proj(context)


class TransformerBlock(Module):
    """One pre-norm transformer encoder block (MHSA + MLP + residuals + LN).

    This matches paper Eq. 2: ``I_{b+1} = LN(I'_b + I''_b)`` with
    ``I'_b = LN(MHSA(I_b))`` and ``I''_b = MLP(I'_b)``.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        mlp_ratio: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.attention = MultiHeadSelfAttention(dim, num_heads=num_heads, rng=rng)
        self.norm_attention = LayerNorm(dim)
        self.norm_out = LayerNorm(dim)
        hidden = max(int(dim * mlp_ratio), dim)
        self.mlp = MLP(dim, [hidden], dim, rng=rng)

    def forward(self, tokens: Tensor) -> Tensor:
        attended = self.norm_attention(self.attention(tokens))
        residual = tokens + attended
        expanded = self.mlp(attended)
        return self.norm_out(residual + expanded)


__all__ = ["MultiHeadSelfAttention", "TransformerBlock"]
