"""RefFiL as a pluggable :class:`repro.federated.FederatedMethod`.

This is the object the experiment harness instantiates.  It wires together
the composite model (backbone + CDAP), the client trainer (local losses of
Eq. 13/12/9) and the server prompt aggregator (FedAvg + FINCH clustering),
and exposes the ablation switches used in Table VII and the temperature
hyper-parameters swept in Table VIII.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.client import RefFiLClientTrainer
from repro.core.dpcl import DPCLConfig
from repro.core.model import RefFiLModel
from repro.core.server import RefFiLPromptAggregator, aggregate_with_prompts
from repro.federated.client import ClientHandle
from repro.federated.communication import ClientUpdate, TreePayloadCodec
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

    def with_components(self, use_cdap: bool, use_gpl: bool, use_dpcl: bool) -> "RefFiLConfig":
        """Return a copy with different ablation switches (Table VII rows)."""
        return replace(self, use_cdap=use_cdap, use_gpl=use_gpl, use_dpcl=use_dpcl)


class RefFiLPromptCodec(TreePayloadCodec):
    """Wire codec for RefFiL's prompt payloads: stacked matrices, not opaque dicts.

    RefFiL's two payload shapes are dicts of per-class vectors — the uploaded
    ``LPG_m`` (``{"prompt_groups": {label: (d,)}}``) and the broadcast prompt
    store (``{"class_<k>": (N_k, d)}``).  The generic tree codec would ship
    one tiny named array per class; this codec stacks each into a single
    labels/vectors pair, so the wire codec (delta / quantize / topk) sees two
    dense matrices instead of dozens of fragments and per-array framing
    overhead disappears.  Unrecognised payloads fall back to the tree walk,
    and both shapes round-trip exactly — values, dtypes and dict order.
    """

    def flatten(self, payload):
        flat = self._flatten_prompt_groups(payload)
        if flat is None:
            flat = self._flatten_store(payload)
        return flat if flat is not None else super().flatten(payload)

    def unflatten(self, arrays, skeleton):
        if isinstance(skeleton, tuple) and skeleton and skeleton[0] == "reffil-lpg":
            labels = arrays["lpg/labels"]
            vectors = np.asarray(arrays["lpg/vectors"])
            return {
                "prompt_groups": {
                    str(int(label)): vectors[index].copy()
                    for index, label in enumerate(labels)
                }
            }
        if isinstance(skeleton, tuple) and skeleton and skeleton[0] == "reffil-store":
            labels = arrays["gps/labels"]
            counts = arrays["gps/counts"]
            vectors = np.asarray(arrays["gps/vectors"])
            store: Dict[str, np.ndarray] = {}
            start = 0
            for label, count in zip(labels, counts):
                store[f"class_{int(label)}"] = vectors[start : start + int(count)].copy()
                start += int(count)
            return store
        return super().unflatten(arrays, skeleton)

    @staticmethod
    def _canonical_int(text: str) -> Optional[int]:
        """``int(text)`` when ``str(int(text)) == text``; None otherwise."""
        try:
            value = int(text)
        except ValueError:
            return None
        return value if str(value) == text else None

    @classmethod
    def _flatten_prompt_groups(cls, payload):
        if not (isinstance(payload, dict) and set(payload) == {"prompt_groups"}):
            return None
        groups = payload["prompt_groups"]
        if not (isinstance(groups, dict) and groups):
            return None
        labels: List[int] = []
        vectors: List[np.ndarray] = []
        for key, vector in groups.items():
            label = cls._canonical_int(key) if isinstance(key, str) else None
            if label is None or not (isinstance(vector, np.ndarray) and vector.ndim == 1):
                return None
            labels.append(label)
            vectors.append(vector)
        if len({(v.dtype, v.shape) for v in vectors}) != 1:
            return None
        arrays = {
            "lpg/labels": np.asarray(labels, dtype=np.int64),
            "lpg/vectors": np.stack(vectors),
        }
        return arrays, ("reffil-lpg",)

    @classmethod
    def _flatten_store(cls, payload):
        if not (isinstance(payload, dict) and payload):
            return None
        labels: List[int] = []
        counts: List[int] = []
        matrices: List[np.ndarray] = []
        for key, matrix in payload.items():
            if not (isinstance(key, str) and key.startswith("class_")):
                return None
            label = cls._canonical_int(key[len("class_"):])
            if label is None or not (isinstance(matrix, np.ndarray) and matrix.ndim == 2):
                return None
            labels.append(label)
            counts.append(matrix.shape[0])
            matrices.append(matrix)
        if len({(m.dtype, m.shape[1]) for m in matrices}) != 1:
            return None
        arrays = {
            "gps/labels": np.asarray(labels, dtype=np.int64),
            "gps/counts": np.asarray(counts, dtype=np.int64),
            "gps/vectors": np.concatenate(matrices, axis=0),
        }
        return arrays, ("reffil-store",)


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
        self.prompt_aggregator = RefFiLPromptAggregator(
            num_classes=config.backbone.num_classes,
            embed_dim=config.backbone.embed_dim,
            max_representatives=config.max_prompt_representatives,
        )

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
        # The broadcast payload carries the clustered store; rebuild the client view.
        store = self.prompt_aggregator.store
        if broadcast_payload:
            store = self.prompt_aggregator.store.from_payload(
                broadcast_payload,
                num_classes=self.config.backbone.num_classes,
                embed_dim=self.config.backbone.embed_dim,
            )
        return self.client_trainer.local_update(model, store, client)

    def aggregate(self, server: FederatedServer, updates: List[ClientUpdate]) -> None:
        aggregate_with_prompts(server, self.prompt_aggregator, updates)

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

    def payload_codec(self) -> RefFiLPromptCodec:
        """Prompt groups and the clustered store ship as stacked label/vector pairs."""
        return RefFiLPromptCodec()

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
        averaged = self.prompt_aggregator.store.averaged_prompt_matrix()
        if averaged is None:
            return model.backbone(images)
        return model.backbone(images, Tensor(averaged))


__all__ = ["RefFiLConfig", "RefFiLMethod", "RefFiLPromptCodec"]
