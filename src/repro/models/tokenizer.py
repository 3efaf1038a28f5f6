"""Frozen feature-map tokenizer (patch embedding).

The paper describes "a simple embedding model as the feature map tokenizer,
similar to ViT, with initialized-only and frozen parameters".  Here a 1x1
convolution projects the CNN feature map to the token dimension ``d`` and the
spatial grid is flattened into ``n`` patch tokens.  Its parameters are frozen
at construction and a fixed sinusoidal positional encoding is added so the
attention block can distinguish patch locations.  Neither is part of the
model's ``state_dict``: both come from construction (config + seed).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, get_default_dtype
from repro.nn.conv import Conv2d
from repro.nn.module import Module


#: Patch tokens the positional table covers (a 16 x 16 feature map).
MAX_POSITIONS = 256
#: The positional encoding is scaled down so it augments rather than
#: dominates the projected feature tokens.
POSITIONAL_SCALE = 0.2


def sinusoidal_positions(num_positions: int, dim: int) -> np.ndarray:
    """Standard transformer sinusoidal positional encoding of shape (num_positions, dim)."""
    positions = np.arange(num_positions)[:, None].astype(np.float64)
    dims = np.arange(dim)[None, :].astype(np.float64)
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / dim)
    angles = positions * angle_rates
    encoding = np.zeros((num_positions, dim))
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


class PatchTokenizer(Module):
    """Project a batch-last ``(C, H, W, N)`` feature map to ``(N, H*W, d)`` patch tokens."""

    def __init__(
        self,
        in_channels: int,
        embed_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.embed_dim = embed_dim
        self.projection = Conv2d(in_channels, embed_dim, 1, rng=rng)
        # A constant of the model's dtype, not a buffer: it is never trained
        # and never running, so it is not part of the model's state.
        self.positional = np.asarray(
            POSITIONAL_SCALE * sinusoidal_positions(MAX_POSITIONS, embed_dim),
            dtype=get_default_dtype(),
        )
        # Paper: the tokenizer is "initialized-only and frozen".
        self.freeze()

    def forward(self, feature_map: Tensor) -> Tensor:
        _, height, width, batch = feature_map.shape
        num_tokens = height * width
        projected = self.projection(feature_map)  # (d, H, W, N)
        tokens = projected.reshape(self.embed_dim, num_tokens, batch).transpose(2, 1, 0)
        if num_tokens > self.positional.shape[0]:
            raise ValueError(
                f"feature map yields {num_tokens} tokens but tokenizer supports at most "
                f"{self.positional.shape[0]}"
            )
        return tokens + Tensor(self.positional[:num_tokens])


__all__ = ["PatchTokenizer", "sinusoidal_positions"]
