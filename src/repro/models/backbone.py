"""Prompt-aware classification backbone shared by RefFiL and all baselines.

The forward path implements paper Eqs. 1-3:

1. ``F = h(x)`` -- the ResNet10 feature extractor produces a feature map,
2. the frozen tokenizer splits ``F`` into ``n`` patch tokens ``PT`` and a
   learnable ``[CLS]`` token is prepended: ``I = [CLS; PT_1, ..., PT_n]``,
3. prompt tokens (local CDAP prompts, global prompts, or a baseline's pool
   prompts) are inserted between ``[CLS]`` and the patch tokens,
4. the attention block computes the output ``[CLS]`` embedding only (its query
   attends over the whole sequence) and the classifier ``G`` maps it to class logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.models.classifier import ClsClassifier
from repro.models.resnet import ResNet10
from repro.models.tokenizer import PatchTokenizer
from repro.nn import init
from repro.nn.attention import TransformerBlock
from repro.nn.module import Module, Parameter
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class BackboneConfig:
    """Hyper-parameters of the shared backbone.

    The defaults correspond to the ``tiny`` preset used throughout the test
    suite; the experiment configs scale them up.
    """

    image_size: int = 16
    in_channels: int = 3
    num_classes: int = 10
    base_width: int = 8
    widths: Sequence[float] = (1, 2, 2, 2)
    stage_strides: Sequence[int] = (1, 2, 2, 1)
    embed_dim: int = 32
    num_heads: int = 2
    mlp_ratio: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.image_size < 8:
            raise ValueError("image_size must be at least 8")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")


class PromptedBackbone(Module):
    """Feature extractor + frozen tokenizer + attention block + classifier."""

    def __init__(self, config: BackboneConfig) -> None:
        super().__init__()
        self.config = config
        rng = spawn_rng(config.seed, "backbone")
        self.feature_extractor = ResNet10(
            in_channels=config.in_channels,
            base_width=config.base_width,
            widths=config.widths,
            stage_strides=config.stage_strides,
            rng=rng,
        )
        self.tokenizer = PatchTokenizer(
            in_channels=self.feature_extractor.out_channels,
            embed_dim=config.embed_dim,
            rng=rng,
        )
        self.cls_token = Parameter(init.normal((1, 1, config.embed_dim), std=0.02, rng=rng))
        self.block = TransformerBlock(
            config.embed_dim, num_heads=config.num_heads, mlp_ratio=config.mlp_ratio, rng=rng
        )
        self.classifier = ClsClassifier(config.embed_dim, config.num_classes, rng=rng)
        spatial = self.feature_extractor.output_spatial(config.image_size)
        self.num_patch_tokens = spatial[0] * spatial[1]

    # ------------------------------------------------------------------ #
    # Token construction
    # ------------------------------------------------------------------ #
    def feature_map(self, images: Tensor) -> Tensor:
        """Run the CNN feature extractor ``h(x)``."""
        return self.feature_extractor(images)

    def patch_tokens(self, images: Tensor) -> Tensor:
        """Tokenise ``h(x)`` into patch tokens ``PT`` of shape (N, n, d).

        Every forward starts here, so this is where an image of the wrong
        shape is refused: the token count and the positional table are fixed
        by ``image_size`` at construction.
        """
        size = self.config.image_size
        expected = (self.config.in_channels, size, size)
        if tuple(images.shape[1:]) != expected:
            raise ValueError(
                f"images must have shape (N, {expected[0]}, {size}, {size}), "
                f"got {tuple(images.shape)}"
            )
        return self.tokenizer(self.feature_map(images))

    def input_tokens(self, images: Tensor) -> Tensor:
        """Build the prompt-free token sequence ``I = [CLS; PT]`` (paper Eq. 1)."""
        return self.input_tokens_from_patches(self.patch_tokens(images))

    def input_tokens_from_patches(self, patches: Tensor) -> Tensor:
        """``I = [CLS; PT]`` from precomputed patch tokens (CDAP's input)."""
        batch = patches.shape[0]
        cls = self.cls_token.broadcast_to((batch, 1, self.config.embed_dim))
        return Tensor.concatenate([cls, patches], axis=1)

    @staticmethod
    def _prepare_prompts(prompts: Tensor, batch: int) -> Tensor:
        """Broadcast prompts of shape (p, d) or (N, p, d) to (N, p, d)."""
        if prompts.ndim == 2:
            p, d = prompts.shape
            return prompts.reshape(1, p, d).broadcast_to((batch, p, d))
        if prompts.ndim == 3:
            if prompts.shape[0] != batch:
                raise ValueError(
                    f"per-sample prompts batch {prompts.shape[0]} does not match images batch {batch}"
                )
            return prompts
        raise ValueError(f"prompts must be rank 2 or 3, got shape {prompts.shape}")

    # ------------------------------------------------------------------ #
    # Forward variants
    # ------------------------------------------------------------------ #
    def classify_tokens(self, tokens: Tensor) -> Tensor:
        """Run the attention block over a prepared token sequence and classify [CLS]."""
        return self.classifier(self.block(tokens))

    def forward(self, images: Tensor, prompts: Optional[Tensor] = None) -> Tensor:
        """Return class logits; ``prompts`` are inserted after the [CLS] token."""
        patches = self.patch_tokens(images)
        return self.forward_from_patches(patches, prompts)

    def forward_from_patches(self, patches: Tensor, prompts: Optional[Tensor] = None) -> Tensor:
        """Same as :meth:`forward` but reusing precomputed patch tokens.

        RefFiL computes three logits per batch (local-prompt, global-prompt and
        the CDAP input tokens) from the same feature map; exposing this method
        avoids running the CNN three times.
        """
        batch = patches.shape[0]
        cls = self.cls_token.broadcast_to((batch, 1, self.config.embed_dim))
        pieces = [cls]
        if prompts is not None:
            pieces.append(self._prepare_prompts(prompts, batch))
        pieces.append(patches)
        tokens = Tensor.concatenate(pieces, axis=1)
        return self.classify_tokens(tokens)


__all__ = ["BackboneConfig", "PromptedBackbone"]
