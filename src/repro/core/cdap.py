"""Client-wise Domain Adaptive Prompt (CDAP) generator.

Paper Eq. 4: given the input token sequence ``I`` (the [CLS] + patch tokens of
one image) and a task-conditional embedding ``v``, the generator produces an
instance-level prompt

    ``P_m = alpha_v * CCDA(MLP(LN(I)^T))^T + lambda_v  in R^{p x d}``

where

* ``LN`` normalises the tokens,
* the ``MLP`` acts across the *token* axis (the tokens are transposed to
  ``d x (n+1)`` first) and compresses the ``n+1`` tokens down to ``p`` prompt
  slots,
* ``CCDA`` is a globally shared linear layer over the embedding dimension --
  because it is part of the model state it is FedAvg-aggregated every round,
  which is what makes it "cross-client domain adaptation",
* ``[alpha_v, lambda_v] = phi(v)`` is a FiLM-style affine modulation predicted
  from the task-ID key embedding ``v`` (Perez et al., 2018).  The task ID is
  only used during training; inference never calls the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.nn.module import Module
from repro.nn.norm import LayerNorm
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class CDAPConfig:
    """Hyper-parameters of the CDAP generator."""

    embed_dim: int = 32
    num_tokens: int = 17
    prompt_length: int = 4
    max_tasks: int = 8
    key_dim: int = 16
    mlp_hidden: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.prompt_length < 1:
            raise ValueError("prompt_length must be at least 1")
        if self.num_tokens < 2:
            raise ValueError("num_tokens must include [CLS] plus at least one patch token")
        if self.max_tasks < 1:
            raise ValueError("max_tasks must be at least 1")


class CDAPGenerator(Module):
    """Generates per-instance, domain-adaptive prompt tokens (paper Eq. 4)."""

    def __init__(self, config: CDAPConfig) -> None:
        super().__init__()
        self.config = config
        rng = spawn_rng(config.seed, "cdap")
        self.norm = LayerNorm(config.embed_dim)
        # The MLP acts on the transposed tokens: it maps the (n+1) token axis
        # down to the p prompt slots, independently for every embedding channel.
        self.token_mlp = MLP(
            config.num_tokens,
            [config.mlp_hidden],
            config.prompt_length,
            rng=rng,
        )
        # CCDA: the globally transferable linear layer over the embedding dim.
        self.ccda = Linear(config.embed_dim, config.embed_dim, rng=rng)
        # Task-specific key embedding and the FiLM parameter predictor phi.
        self.task_keys = Embedding(config.max_tasks, config.key_dim, rng=rng)
        self.film = Linear(config.key_dim, 2 * config.embed_dim, rng=rng)

    @property
    def prompt_length(self) -> int:
        return self.config.prompt_length

    @property
    def embed_dim(self) -> int:
        return self.config.embed_dim

    def forward(self, tokens: Tensor, task_id: int) -> Tensor:
        """Generate prompts of shape ``(batch, prompt_length, embed_dim)``.

        Parameters
        ----------
        tokens:
            The input token sequence ``I`` of shape ``(batch, n+1, d)``
            produced by :meth:`repro.models.PromptedBackbone.input_tokens`.
        task_id:
            Zero-based index of the current incremental task (training only).
        """
        if tokens.ndim != 3:
            raise ValueError(f"tokens must be (batch, n+1, d), got {tokens.shape}")
        batch, num_tokens, dim = tokens.shape
        if num_tokens != self.config.num_tokens:
            raise ValueError(
                f"CDAP was built for {self.config.num_tokens} tokens but received {num_tokens}"
            )
        if dim != self.config.embed_dim:
            raise ValueError(
                f"CDAP was built for embed_dim {self.config.embed_dim} but received {dim}"
            )
        if not 0 <= task_id < self.config.max_tasks:
            raise IndexError(
                f"task_id {task_id} out of range for max_tasks {self.config.max_tasks}"
            )
        normed = self.norm(tokens)  # (B, n+1, d)
        transposed = normed.transpose(0, 2, 1)  # (B, d, n+1)
        compressed = self.token_mlp(transposed)  # (B, d, p)
        prompt_base = compressed.transpose(0, 2, 1)  # (B, p, d)
        adapted = self.ccda(prompt_base)  # (B, p, d)
        key = self.task_keys(np.asarray([task_id]))  # (1, key_dim)
        film_params = self.film(key)  # (1, 2d)
        alpha = film_params[:, : self.config.embed_dim].reshape(1, 1, self.config.embed_dim)
        lam = film_params[:, self.config.embed_dim :].reshape(1, 1, self.config.embed_dim)
        return adapted * (alpha + 1.0) + lam

    def generate_without_task(self, tokens: Tensor) -> Tensor:
        """Prompt generation with the FiLM modulation disabled.

        The paper states the task ID "is not utilized during the inference
        stage"; this path produces prompts from the tokens alone and is what a
        deployed client would run on unlabelled, task-agnostic data.
        """
        normed = self.norm(tokens)
        transposed = normed.transpose(0, 2, 1)
        compressed = self.token_mlp(transposed)
        prompt_base = compressed.transpose(0, 2, 1)
        return self.ccda(prompt_base)


__all__ = ["CDAPConfig", "CDAPGenerator"]
