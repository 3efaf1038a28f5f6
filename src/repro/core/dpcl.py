"""Domain-specific Prompt Contrastive Learning (DPCL) with temperature decay.

Paper Eq. 9-10.  For every sample the locally generated prompt ``u_i`` is
pulled toward the semantically closest global prompt(s) of its class (the
positives ``P+``) and pushed away from the remaining global prompts (the
negatives ``P-``), with an InfoNCE-style loss whose temperature shrinks as
tasks accumulate:

    ``tau' = max(tau_min, tau * (1 - (gamma + (t - 1) * beta)))``

Old/New clients (one domain) take the single closest class prompt as
positive; In-between clients (two domains) take the two closest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.prompts import GlobalPromptStore
from repro.federated.increment import ClientGroup


@dataclass(frozen=True)
class DPCLConfig:
    """Hyper-parameters of the contrastive loss (paper's defaults in Sec. V-A)."""

    tau: float = 0.9
    tau_min: float = 0.3
    gamma: float = 0.1
    beta: float = 0.05
    enable_decay: bool = True
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.tau_min <= self.tau:
            raise ValueError("require 0 < tau_min <= tau")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")


def decayed_temperature(config: DPCLConfig, task_number: int) -> float:
    """Temperature for the given 1-based task number (paper Eq. 10).

    With ``enable_decay`` off the base temperature is returned unchanged (the
    "w/o tau'" row of Table VIII).
    """
    if task_number < 1:
        raise ValueError("task_number is 1-based and must be >= 1")
    if not config.enable_decay:
        return config.tau
    decay = config.gamma + (task_number - 1) * config.beta
    return max(config.tau_min, config.tau * (1.0 - decay))


def _positive_count_for(group: ClientGroup) -> int:
    """Uo / Un clients hold one domain -> 1 positive; Ub hold two -> 2 positives."""
    return 2 if group is ClientGroup.IN_BETWEEN else 1


def dpcl_loss(
    local_prompts: Tensor,
    labels: np.ndarray,
    store: GlobalPromptStore,
    group: ClientGroup,
    temperature: float,
) -> Optional[Tensor]:
    """Contrastive loss between locally generated prompts and global prompts.

    Parameters
    ----------
    local_prompts:
        CDAP output of shape ``(batch, prompt_length, d)``.
    labels:
        Integer class labels of the batch.
    store:
        The clustered global prompt store broadcast by the server.
    group:
        The client's increment group (determines the number of positives).
    temperature:
        The decayed temperature ``tau'``.

    Returns
    -------
    A scalar loss tensor, or ``None`` when the store has no usable prompts yet
    (first rounds of the first task) -- the caller simply omits the term.
    """
    if store.is_empty:
        return None
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    pooled = local_prompts.mean(axis=1)  # (batch, d), differentiable
    # One (batch, K) cosine-similarity matrix against the whole (constant)
    # store: the op count of the loss does not depend on the batch size.
    store_prompts = F.l2_normalize(Tensor(store.all_prompts()), axis=1)  # (K, d)
    similarity = F.l2_normalize(pooled, axis=1) @ store_prompts.T

    # P+ as a constant mask over that matrix, chosen from detached values: the
    # closest prompt(s) of the sample's own class.  Every other column is P-,
    # same-class prompts of other domains included.
    same_class = labels[:, None] == store.prompt_labels()[None, :]
    ranked = np.argsort(
        -np.where(same_class, similarity.data, -np.inf), axis=1, kind="stable"
    )[:, : _positive_count_for(group)]
    positive = np.zeros_like(same_class)
    np.put_along_axis(positive, ranked, True, axis=1)
    # A class with fewer prompts than positives wanted ranks other classes'
    # columns (-inf) next; those are not positives.
    positive &= same_class
    # Skip samples whose class has no global prompt yet, and samples without a
    # single negative (the InfoNCE ratio would be degenerate).
    valid = positive.any(axis=1) & ~positive.all(axis=1)
    num_valid = int(valid.sum())
    if num_valid == 0:
        return None
    # Skipped rows get an all-ones mask: their ratio is exactly 1, their log 0,
    # and their zero weight below keeps every gradient through them at 0.
    positive |= ~valid[:, None]

    exps = (similarity * (1.0 / temperature)).exp()
    ratio = (exps * Tensor(positive)).sum(axis=1) / exps.sum(axis=1)
    return -(ratio.log() * Tensor(valid * (1.0 / num_valid))).sum()


__all__ = ["DPCLConfig", "decayed_temperature", "dpcl_loss"]
