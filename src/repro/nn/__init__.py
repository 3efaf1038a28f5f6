"""Neural-network layers, containers and the optimiser on top of ``repro.autograd``.

The public surface intentionally mirrors a small subset of ``torch.nn`` so the
RefFiL code (and the federated baselines) read like their reference
implementations: ``Module``, ``Parameter``, ``Linear``, ``Conv2d``,
``BatchNorm2d``, ``LayerNorm``, ``ClassAttention``, ``SGD`` and so on.
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm2d, LayerNorm
from repro.nn.activation import GELU
from repro.nn.embedding import Embedding
from repro.nn.mlp import MLP
from repro.nn.attention import ClassAttention, TransformerBlock
from repro.nn.optim import SGD
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "GELU",
    "Embedding",
    "MLP",
    "ClassAttention",
    "TransformerBlock",
    "SGD",
    "init",
]
