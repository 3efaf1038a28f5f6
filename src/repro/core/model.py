"""The composite RefFiL client model: prompted backbone + CDAP generator.

Both parts are part of the model state dict, so FedAvg aggregates them
together -- in particular the CDAP's CCDA layer becomes the "globally
transferable linear layer" of the paper because every round averages it
across the selected clients.
"""

from __future__ import annotations

from typing import Optional

from repro.autograd.tensor import Tensor
from repro.core.cdap import CDAPConfig, CDAPGenerator
from repro.models.backbone import BackboneConfig, PromptedBackbone
from repro.nn.module import Module


class RefFiLModel(Module):
    """Backbone plus CDAP prompt generator, trained and aggregated as one unit."""

    def __init__(
        self,
        backbone_config: BackboneConfig,
        prompt_length: int = 4,
        max_tasks: int = 8,
    ) -> None:
        super().__init__()
        self.backbone = PromptedBackbone(backbone_config)
        self.cdap = CDAPGenerator(
            CDAPConfig(
                embed_dim=backbone_config.embed_dim,
                num_tokens=self.backbone.num_patch_tokens + 1,
                prompt_length=prompt_length,
                max_tasks=max_tasks,
                seed=backbone_config.seed,
            )
        )

    @property
    def embed_dim(self) -> int:
        return self.backbone.config.embed_dim

    @property
    def num_classes(self) -> int:
        return self.backbone.config.num_classes

    def generate_prompts(self, images: Tensor, task_id: Optional[int]) -> Tensor:
        """Run CDAP on the image's token sequence.

        With ``task_id=None`` the task-agnostic path is used (inference).
        """
        tokens = self.backbone.input_tokens(images)
        if task_id is None:
            return self.cdap.generate_without_task(tokens)
        return self.cdap(tokens, task_id)

    def forward(self, images: Tensor, prompts: Optional[Tensor] = None) -> Tensor:
        """Plain classification forward (optionally with explicit prompt tokens)."""
        return self.backbone(images, prompts)


__all__ = ["RefFiLModel"]
