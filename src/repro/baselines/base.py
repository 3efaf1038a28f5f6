"""Shared scaffolding for the federated baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.federated.client import ClientHandle, run_local_sgd
from repro.federated.communication import ClientUpdate
from repro.federated.method import FederatedMethod
from repro.models.backbone import BackboneConfig, PromptedBackbone
from repro.nn.module import Module


@dataclass(frozen=True)
class BaselineConfig:
    """Configuration shared by every baseline: just the backbone (plus extras per method)."""

    backbone: BackboneConfig = field(default_factory=BackboneConfig)


class CrossEntropyFederatedMethod(FederatedMethod):
    """A federated method whose local objective is plain cross-entropy.

    Subclasses override :meth:`batch_loss` to add their regularisers (LwF's
    distillation term, EWC's Fisher penalty) and may override
    :meth:`extra_payload` to upload method-specific statistics.
    """

    name = "CE-base"

    def __init__(self, config: BaselineConfig) -> None:
        self.config = config

    def build_model(self) -> Module:
        return PromptedBackbone(self.config.backbone)

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    def batch_loss(
        self, model: Module, images: Tensor, labels: np.ndarray, client: ClientHandle
    ) -> Tensor:
        """Loss for one mini-batch; default is plain cross-entropy."""
        return F.cross_entropy(model(images), labels)

    def extra_payload(self, model: Module, client: ClientHandle) -> Dict[str, Any]:
        """Method-specific extras to attach to the client update (default: none)."""
        return {}

    # ------------------------------------------------------------------ #
    # FederatedMethod interface
    # ------------------------------------------------------------------ #
    def local_update(
        self,
        model: Module,
        global_state: Dict[str, np.ndarray],
        broadcast_payload: Dict[str, Any],
        client: ClientHandle,
    ) -> ClientUpdate:
        mean_loss = run_local_sgd(
            model,
            client,
            loss_fn=lambda m, images, labels, epoch: self.batch_loss(m, images, labels, client),
        )
        return ClientUpdate(
            client_id=client.client_id,
            state_dict=model.state_dict(),
            num_samples=client.num_samples,
            payload=self.extra_payload(model, client),
            train_loss=mean_loss,
        )

    def predict_logits(self, model: Module, images: Tensor) -> Tensor:
        return model(images)


__all__ = ["BaselineConfig", "CrossEntropyFederatedMethod"]
