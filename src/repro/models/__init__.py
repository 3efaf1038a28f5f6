"""Model zoo: the backbone architecture shared by RefFiL and every baseline.

The backbone follows paper Sec. II ("Learning with Prompts"):

* a CNN feature extractor ``h`` (:class:`repro.models.resnet.ResNet10`),
* a frozen patch-embedding tokenizer that turns the feature map into ``n``
  ``d``-dimensional patch tokens,
* a learnable ``[CLS]`` token prepended to the sequence,
* one transformer attention block ``b`` (MHSA + MLP + skip + LN),
* a linear classifier ``G`` reading the final ``[CLS]`` token.

Prompts (local CDAP prompts, global prompts, or baseline prompt-pool prompts)
are injected as extra tokens between ``[CLS]`` and the patch tokens.
"""

from repro.models.resnet import ResNet10, BasicBlock
from repro.models.tokenizer import PatchTokenizer
from repro.models.classifier import ClsClassifier
from repro.models.backbone import PromptedBackbone, BackboneConfig

__all__ = [
    "ResNet10",
    "BasicBlock",
    "PatchTokenizer",
    "ClsClassifier",
    "PromptedBackbone",
    "BackboneConfig",
]
