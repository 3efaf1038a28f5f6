"""RefFiL client-side local update (paper Algorithm 1, lines 12-30).

For every mini-batch the client computes (Eq. 14):

    ``L = L_CE + L_GPL + L_DPCL``

* ``L_CE``  -- cross-entropy of the prediction conditioned on the locally
  generated CDAP prompts (Eq. 13),
* ``L_GPL`` -- cross-entropy of the prediction conditioned on the averaged
  global prompts (Eq. 12),
* ``L_DPCL`` -- the prompt contrastive loss against the clustered global
  prompts with decayed temperature (Eq. 9-10).

During the final local epoch the generated prompts are pooled per class into
the client's Local Prompt Group which is uploaded alongside the model update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.dpcl import DPCLConfig, decayed_temperature, dpcl_loss
from repro.core.gpl import gpl_loss
from repro.core.model import RefFiLModel
from repro.core.prompts import GlobalPromptStore, LocalPromptCollector
from repro.federated.client import ClientHandle, run_local_sgd
from repro.federated.communication import ClientUpdate
from repro.nn.module import Parameter
from repro.utils.rng import spawn_rng


@dataclass
class RefFiLLossBreakdown:
    """Per-batch loss components (Eq. 14), kept for logging and the Table VII ablation."""

    cross_entropy: float = 0.0
    gpl: float = 0.0
    dpcl: float = 0.0
    total: float = 0.0

    def accumulate(self, other: "RefFiLLossBreakdown") -> None:
        self.cross_entropy += other.cross_entropy
        self.gpl += other.gpl
        self.dpcl += other.dpcl
        self.total += other.total

    def mean_over(self, batches: int) -> "RefFiLLossBreakdown":
        count = max(batches, 1)
        return RefFiLLossBreakdown(
            cross_entropy=self.cross_entropy / count,
            gpl=self.gpl / count,
            dpcl=self.dpcl / count,
            total=self.total / count,
        )

    def as_metrics(self) -> Dict[str, float]:
        """Flat dict for :attr:`repro.federated.communication.ClientUpdate.metrics`."""
        return {
            "loss_ce": self.cross_entropy,
            "loss_gpl": self.gpl,
            "loss_dpcl": self.dpcl,
            "loss_total": self.total,
        }


class RefFiLClientTrainer:
    """Runs one client's local RefFiL update.

    The ablation switches mirror Table VII: with ``use_cdap`` off the client
    uses a plain learnable prompt parameter instead of the instance-conditioned
    generator; ``use_gpl`` / ``use_dpcl`` gate the corresponding loss terms.
    """

    def __init__(
        self,
        dpcl_config: DPCLConfig,
        use_cdap: bool = True,
        use_gpl: bool = True,
        use_dpcl: bool = True,
    ) -> None:
        self.dpcl_config = dpcl_config
        self.use_cdap = use_cdap
        self.use_gpl = use_gpl
        self.use_dpcl = use_dpcl
        self._static_prompts: Dict[int, Parameter] = {}

    # ------------------------------------------------------------------ #
    # Ablation helper: static prompts when the CDAP generator is disabled
    # ------------------------------------------------------------------ #
    def _static_prompt_for(self, model: RefFiLModel, client_id: int) -> Parameter:
        if client_id not in self._static_prompts:
            rng = spawn_rng(client_id, "static-prompt")
            self._static_prompts[client_id] = Parameter(
                0.02 * rng.standard_normal((model.cdap.prompt_length, model.embed_dim))
            )
        return self._static_prompts[client_id]

    def export_static_prompt(self, client_id: int) -> Optional[np.ndarray]:
        """The client's trained static prompt, if one exists (cross-process export)."""
        prompt = self._static_prompts.get(client_id)
        return None if prompt is None else prompt.data.copy()

    def load_static_prompt(self, client_id: int, data: np.ndarray) -> None:
        """Install a static prompt exported by a worker process."""
        self._static_prompts[client_id] = Parameter(data)

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def local_update(
        self,
        model: RefFiLModel,
        store: GlobalPromptStore,
        client: ClientHandle,
    ) -> ClientUpdate:
        """Train locally for ``client.training.local_epochs`` epochs and build the update."""
        collector = LocalPromptCollector(model.embed_dim)
        averaged_globals = store.averaged_prompt_matrix()
        temperature = decayed_temperature(self.dpcl_config, task_number=client.task_id + 1)
        static_prompt = (
            None if self.use_cdap else self._static_prompt_for(model, client.client_id)
        )

        parameters = model.parameters()
        if static_prompt is not None:
            parameters.append(static_prompt)
        final_epoch = client.training.local_epochs - 1
        totals = RefFiLLossBreakdown()
        batches = 0

        def loss_fn(model, images, labels, epoch):
            nonlocal batches
            loss, breakdown = self._batch_loss(
                model,
                images,
                labels,
                client,
                averaged_globals,
                store,
                temperature,
                static_prompt,
                collector if epoch == final_epoch else None,
            )
            totals.accumulate(breakdown)
            batches += 1
            return loss

        run_local_sgd(model, client, loss_fn, parameters)
        means = totals.mean_over(batches)
        return ClientUpdate(
            client_id=client.client_id,
            state_dict=model.state_dict(),
            num_samples=client.num_samples,
            payload={"prompt_groups": collector.to_payload()},
            train_loss=means.total,
            metrics=means.as_metrics(),
        )

    # ------------------------------------------------------------------ #
    # Loss assembly for one batch
    # ------------------------------------------------------------------ #
    def _batch_loss(
        self,
        model: RefFiLModel,
        images: Tensor,
        labels: np.ndarray,
        client: ClientHandle,
        averaged_globals: Optional[np.ndarray],
        store: GlobalPromptStore,
        temperature: float,
        static_prompt: Optional[Parameter],
        collector: Optional[LocalPromptCollector],
    ) -> Tuple[Tensor, RefFiLLossBreakdown]:
        backbone = model.backbone
        patch_tokens = backbone.patch_tokens(images)
        batch = patch_tokens.shape[0]

        # Local prompts: CDAP-generated (Eq. 4) or the static ablation prompt.
        if self.use_cdap:
            local_prompts = model.cdap(
                backbone.input_tokens_from_patches(patch_tokens), client.task_id
            )
        else:
            local_prompts = static_prompt.reshape(
                1, static_prompt.shape[0], static_prompt.shape[1]
            ).broadcast_to((batch, static_prompt.shape[0], static_prompt.shape[1]))

        # L_CE: prediction conditioned on the local prompts (Eq. 13).
        local_logits = backbone.forward_from_patches(patch_tokens, local_prompts)
        loss = F.cross_entropy(local_logits, labels)
        breakdown = RefFiLLossBreakdown(cross_entropy=float(loss.data))

        # L_GPL: prediction conditioned on the averaged global prompts (Eq. 12).
        if self.use_gpl:
            gpl = gpl_loss(backbone, patch_tokens, labels, averaged_globals)
            if gpl is not None:
                breakdown.gpl = float(gpl.data)
                loss = loss + gpl

        # L_DPCL: contrastive alignment of local prompts with global prompts (Eq. 9).
        if self.use_dpcl:
            dpcl = dpcl_loss(local_prompts, labels, store, client.group, temperature)
            if dpcl is not None:
                breakdown.dpcl = self.dpcl_config.weight * float(dpcl.data)
                loss = loss + self.dpcl_config.weight * dpcl

        if collector is not None:
            collector.add_batch(local_prompts.detach(), labels)
        breakdown.total = float(loss.data)
        return loss, breakdown


__all__ = ["RefFiLClientTrainer", "RefFiLLossBreakdown"]
