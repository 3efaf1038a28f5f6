"""Key-query matched prompt pool (the mechanism behind L2P and DualPrompt's expert prompts).

A pool holds ``pool_size`` prompts, each a ``(prompt_length, embed_dim)``
token block with an associated learnable key vector.  Given a query (here the
mean patch-token embedding of the image), the ``top_k`` prompts with the most
cosine-similar keys are prepended to the token sequence, and a pull loss
encourages the selected keys to move toward the queries that picked them.

The paper's dagger variants (FedL2P-dagger, FedDualPrompt-dagger) keep the pool
enabled; the plain variants replace it with a single shared prompt, which is
what the ``enabled`` flag models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class PromptPoolConfig:
    """Size and selection hyper-parameters of a prompt pool."""

    pool_size: int = 6
    prompt_length: int = 2
    embed_dim: int = 32
    top_k: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if not 1 <= self.top_k <= self.pool_size:
            raise ValueError("top_k must be in [1, pool_size]")
        if self.prompt_length < 1:
            raise ValueError("prompt_length must be at least 1")


class PromptPool(Module):
    """Learnable prompt pool with cosine key-query selection."""

    def __init__(self, config: PromptPoolConfig) -> None:
        super().__init__()
        self.config = config
        rng = spawn_rng(config.seed, "prompt-pool")
        self.prompts = Parameter(
            init.normal((config.pool_size, config.prompt_length, config.embed_dim), std=0.02, rng=rng)
        )
        self.keys = Parameter(init.normal((config.pool_size, config.embed_dim), std=0.02, rng=rng))

    def select(self, query: Tensor) -> Tuple[Tensor, Tensor, np.ndarray]:
        """Select the top-k prompts for each query.

        Parameters
        ----------
        query:
            Detached query embeddings of shape ``(batch, embed_dim)``.

        Returns
        -------
        ``(prompt_tokens, pull_loss, indices)`` where ``prompt_tokens`` has
        shape ``(batch, top_k * prompt_length, embed_dim)``, ``pull_loss`` is
        the mean ``1 - cos(query, selected_key)`` and ``indices`` records which
        pool entries each sample picked (for frequency statistics / tests).
        """
        if query.ndim != 2 or query.shape[1] != self.config.embed_dim:
            raise ValueError(
                f"query must be (batch, {self.config.embed_dim}), got {query.shape}"
            )
        batch = query.shape[0]
        # Selection itself is a hard, non-differentiable top-k on detached values.
        query_values = query.data
        key_values = self.keys.data
        query_norm = query_values / np.maximum(
            np.linalg.norm(query_values, axis=1, keepdims=True), 1e-12
        )
        key_norm = key_values / np.maximum(np.linalg.norm(key_values, axis=1, keepdims=True), 1e-12)
        similarity = query_norm @ key_norm.T  # (batch, pool)
        indices = np.argsort(-similarity, axis=1)[:, : self.config.top_k]  # (batch, top_k)

        selected_prompts = self.prompts[indices]  # (batch, top_k, p, d)
        prompt_tokens = selected_prompts.reshape(
            batch, self.config.top_k * self.config.prompt_length, self.config.embed_dim
        )
        selected_keys = self.keys[indices]  # (batch, top_k, d)
        query_expanded = query.reshape(batch, 1, self.config.embed_dim).broadcast_to(
            (batch, self.config.top_k, self.config.embed_dim)
        )
        pull = 1.0 - F.cosine_similarity(query_expanded, selected_keys)  # (batch, top_k)
        return prompt_tokens, pull.mean(), indices


class SinglePrompt(Module):
    """A single shared learnable prompt: the pool-disabled ("fair comparison") variant."""

    def __init__(self, prompt_length: int, embed_dim: int, seed: int = 0) -> None:
        super().__init__()
        rng = spawn_rng(seed, "single-prompt")
        self.prompt = Parameter(init.normal((prompt_length, embed_dim), std=0.02, rng=rng))

    def tokens(self, batch: int) -> Tensor:
        length, dim = self.prompt.shape
        return self.prompt.reshape(1, length, dim).broadcast_to((batch, length, dim))


__all__ = ["PromptPoolConfig", "PromptPool", "SinglePrompt"]
