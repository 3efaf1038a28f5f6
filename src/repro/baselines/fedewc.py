"""FedEWC: Elastic Weight Consolidation adapted to federated domain-incremental learning.

Kirkpatrick et al.'s EWC penalises movement of parameters that were important
for previous tasks, weighting the quadratic penalty by the (diagonal) Fisher
information.  In the federated adaptation:

* during the *last round* of every task each selected client estimates a local
  diagonal Fisher on its own data (squared gradients of the log-likelihood)
  and uploads it with its model update;
* the server averages the local Fishers into a global Fisher and anchors the
  penalty at the end-of-task global parameters;
* from the next task onward every client adds
  ``lambda/2 * sum_i F_i (theta_i - theta*_i)^2`` to its local loss.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.baselines.base import BaselineConfig, CrossEntropyFederatedMethod
from repro.federated.aggregation import blend_states
from repro.federated.client import ClientHandle
from repro.federated.communication import ClientUpdate
from repro.federated.server import FederatedServer
from repro.nn.module import Module


class FedEWCMethod(CrossEntropyFederatedMethod):
    """Cross-entropy plus a Fisher-weighted quadratic penalty toward the previous task's optimum."""

    name = "FedEWC"

    def __init__(
        self,
        config: BaselineConfig,
        constraint: float = 300.0,
        fisher_batches: int = 2,
    ) -> None:
        super().__init__(config)
        if constraint < 0:
            raise ValueError("constraint must be non-negative")
        self.constraint = constraint
        self.fisher_batches = fisher_batches
        self._fisher: Optional[Dict[str, np.ndarray]] = None
        self._anchor: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Local objective
    # ------------------------------------------------------------------ #
    def batch_loss(
        self, model: Module, images: Tensor, labels: np.ndarray, client: ClientHandle
    ) -> Tensor:
        loss = F.cross_entropy(model(images), labels)
        if self._fisher is None or self._anchor is None or self.constraint == 0:
            return loss
        penalty: Optional[Tensor] = None
        for name, param in model.named_parameters():
            if not param.requires_grad or name not in self._fisher:
                continue
            diff = param - Tensor(self._anchor[name])
            term = (Tensor(self._fisher[name]) * diff * diff).sum()
            penalty = term if penalty is None else penalty + term
        if penalty is None:
            return loss
        return loss + (self.constraint / 2.0) * penalty

    # ------------------------------------------------------------------ #
    # Fisher estimation (uploaded during the final round of a task)
    # ------------------------------------------------------------------ #
    def _is_final_round(self, client: ClientHandle) -> bool:
        round_index = client.metadata.get("round_index", 0.0)
        rounds_per_task = client.metadata.get("rounds_per_task", 1.0)
        return round_index >= rounds_per_task - 1

    def _estimate_local_fisher(self, model: Module, client: ClientHandle) -> Dict[str, np.ndarray]:
        fisher = {
            name: np.zeros_like(param.data)
            for name, param in model.named_parameters()
            if param.requires_grad
        }
        batches_used = 0
        for images, labels in client.loader():
            if batches_used >= self.fisher_batches:
                break
            model.zero_grad()
            loss = F.cross_entropy(model(images), labels)
            loss.backward()
            for name, param in model.named_parameters():
                if param.requires_grad and param.grad is not None:
                    fisher[name] += param.grad ** 2
            batches_used += 1
        if batches_used:
            for name in fisher:
                fisher[name] /= batches_used
        model.zero_grad()
        return fisher

    def extra_payload(self, model: Module, client: ClientHandle) -> Dict[str, Any]:
        if not self._is_final_round(client):
            return {}
        fisher = self._estimate_local_fisher(model, client)
        return {"fisher": fisher}

    # ------------------------------------------------------------------ #
    # Server side: average the Fishers, anchor at end-of-task parameters
    # ------------------------------------------------------------------ #
    def aggregate(self, server: FederatedServer, updates: List[ClientUpdate]) -> None:
        server.aggregate(updates)
        uploaded = [update.payload["fisher"] for update in updates if "fisher" in update.payload]
        if not uploaded:
            return
        averaged: Dict[str, np.ndarray] = {}
        for name in uploaded[0]:
            averaged[name] = np.mean([fisher[name] for fisher in uploaded], axis=0)
        # Normalise so the constraint strength is comparable across tasks.
        max_value = max(float(array.max()) for array in averaged.values())
        if max_value > 0:
            for name in averaged:
                averaged[name] = averaged[name] / max_value
        self._fisher = averaged
        self._anchor = {
            name: value.copy()
            for name, value in server.global_state.items()
            if not name.startswith("buffer::")
        }

    def apply_async_update(
        self, server: FederatedServer, update: ClientUpdate, mixing: float
    ) -> None:
        """Async arrivals blend the Fisher information too.

        The base hook replays :meth:`aggregate` on a single-arrival round,
        where the cohort mean degenerates to the one client's Fisher — a
        last-writer-wins overwrite of the population estimate.  The FedAsync
        analogue of the sync-mode cohort average is an exponential moving
        average at the arrival's mixing rate, so a stale or lone client
        nudges the global Fisher instead of replacing it.  The anchor needs
        no such treatment: it tracks the (already blended) global state.
        """
        prior = self._fisher
        super().apply_async_update(server, update, mixing)
        fresh = self._fisher
        if (
            prior is not None
            and fresh is not None
            and fresh is not prior  # the arrival actually carried a Fisher
            and set(prior) == set(fresh)
        ):
            self._fisher = blend_states(prior, fresh, mixing)


__all__ = ["FedEWCMethod"]
