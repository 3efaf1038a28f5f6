"""RefFiL as a pluggable :class:`repro.federated.FederatedMethod`.

This is the object the experiment harness instantiates.  It wires together
the composite model (backbone + CDAP), the client trainer (local losses of
Eq. 13/12/9) and the server-side prompt store (FedAvg + FINCH clustering),
and exposes the ablation switches used in Table VII and the temperature
hyper-parameters swept in Table VIII.  Both prompt payloads are built
stacked, so the generic tree codec ships each as a few dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.client import RefFiLClientTrainer
from repro.core.clustering import cluster_prompt_groups
from repro.core.dpcl import DPCLConfig
from repro.core.model import RefFiLModel
from repro.core.prompts import GlobalPromptStore, check_prompt_rows
from repro.federated.client import ClientHandle
from repro.federated.communication import ClientUpdate
from repro.federated.method import FederatedMethod
from repro.federated.server import FederatedServer
from repro.models.backbone import BackboneConfig


@dataclass(frozen=True)
class RefFiLConfig:
    """Everything that configures a RefFiL run besides the federated loop itself."""

    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    prompt_length: int = 4
    max_tasks: int = 8
    dpcl: DPCLConfig = field(default_factory=DPCLConfig)
    max_prompt_representatives: int = 8
    use_cdap: bool = True
    use_gpl: bool = True
    use_dpcl: bool = True


class RefFiLMethod(FederatedMethod):
    """The full RefFiL algorithm (Algorithm 1) behind the generic method interface."""

    def __init__(self, config: RefFiLConfig) -> None:
        if config.use_dpcl and not (config.use_gpl or config.use_cdap):
            # The paper notes DPCL "cannot function in isolation": it needs the
            # prompt-sharing machinery that CDAP/GPL provide.
            raise ValueError("DPCL requires at least one of CDAP or GPL to be enabled")
        self.config = config
        self.name = self._build_name(config)
        self.client_trainer = RefFiLClientTrainer(
            dpcl_config=config.dpcl,
            use_cdap=config.use_cdap,
            use_gpl=config.use_gpl,
            use_dpcl=config.use_dpcl,
        )
        self.store = GlobalPromptStore(config.backbone.num_classes, config.backbone.embed_dim)

    @staticmethod
    def _build_name(config: RefFiLConfig) -> str:
        if config.use_cdap and config.use_gpl and config.use_dpcl:
            return "RefFiL"
        enabled = [
            label
            for label, flag in (
                ("CDAP", config.use_cdap),
                ("GPL", config.use_gpl),
                ("DPCL", config.use_dpcl),
            )
            if flag
        ]
        return "RefFiL[" + "+".join(enabled) + "]" if enabled else "RefFiL[none]"

    # ------------------------------------------------------------------ #
    # FederatedMethod interface
    # ------------------------------------------------------------------ #
    def build_model(self) -> RefFiLModel:
        return RefFiLModel(
            backbone_config=self.config.backbone,
            prompt_length=self.config.prompt_length,
            max_tasks=self.config.max_tasks,
        )

    def local_update(
        self,
        model: RefFiLModel,
        global_state: Dict[str, np.ndarray],
        broadcast_payload: Dict[str, Any],
        client: ClientHandle,
    ) -> ClientUpdate:
        store = self._store_of(broadcast_payload)
        return self.client_trainer.local_update(model, store, client)

    def aggregate(self, server: FederatedServer, updates: List[ClientUpdate]) -> None:
        """Algorithm 1, lines 8-10: FedAvg, then FINCH over the uploaded LPGs and
        the store's representatives; the store rides the next broadcast.  A
        malformed upload raises before any server state changes."""
        groups = [u.payload["prompt_groups"] for u in updates if "prompt_groups" in u.payload]
        for group in groups:
            check_prompt_rows(group["labels"], np.ones_like(group["labels"]), group["vectors"])
        server.aggregate(updates)
        uploaded = [dict(zip(g["labels"].tolist(), g["vectors"])) for g in groups if g["labels"].size]
        if uploaded:
            self.store.replace(
                cluster_prompt_groups(
                    uploaded,
                    existing=self.store.representatives,
                    max_representatives=self.config.max_prompt_representatives,
                )
            )
        server.broadcast_payload = self.store.to_payload()

    def export_client_state(self, client_id: int) -> Optional[np.ndarray]:
        """Cross-process round-trip of the static ablation prompt (if CDAP is off).

        With CDAP enabled RefFiL keeps no per-client state, so the parallel
        executor ships nothing back; the static-prompt ablation trains one
        persistent prompt per client, which must survive the worker process.
        """
        if self.config.use_cdap:
            return None
        return self.client_trainer.export_static_prompt(client_id)

    def import_client_state(self, client_id: int, state: np.ndarray) -> None:
        self.client_trainer.load_static_prompt(client_id, state)

    def _store_of(self, payload: Dict[str, Any]) -> GlobalPromptStore:
        """The clustered store a broadcast payload carries (none: an empty store)."""
        dims = (self.config.backbone.num_classes, self.config.backbone.embed_dim)
        if not payload:
            return GlobalPromptStore(*dims)
        return GlobalPromptStore.from_payload(payload, *dims)

    def load_broadcast_payload(self, payload: Dict[str, Any]) -> None:
        self.store = self._store_of(payload)  # what CDAP-free inference averages

    def predict_logits(self, model: RefFiLModel, images: Tensor) -> Tensor:
        """Inference: condition on CDAP prompts generated without the task ID.

        The paper states the task ID is not used at inference; the generator's
        task-agnostic path produces instance-level prompts from the tokens
        alone, which matches the local-prompt path the L_CE objective trains.
        When the generator is ablated away (Table VII rows without CDAP) the
        averaged global prompts are used instead, falling back to a prompt-free
        forward before any global prompts exist.
        """
        if self.config.use_cdap:
            # One pass through the feature extractor serves both the CDAP
            # input tokens and the classification forward.
            backbone = model.backbone
            patches = backbone.patch_tokens(images)
            prompts = model.cdap.generate_without_task(
                backbone.input_tokens_from_patches(patches)
            )
            return backbone.forward_from_patches(patches, prompts)
        averaged = self.store.averaged_prompt_matrix()
        if averaged is None:
            return model.backbone(images)
        return model.backbone(images, Tensor(averaged))


__all__ = ["RefFiLConfig", "RefFiLMethod"]
