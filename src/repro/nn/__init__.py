"""Neural-network layers, containers and optimisers on top of ``repro.autograd``.

The public surface intentionally mirrors a small subset of ``torch.nn`` so the
RefFiL code (and the federated baselines) read like their reference
implementations: ``Module``, ``Parameter``, ``Linear``, ``Conv2d``,
``BatchNorm2d``, ``LayerNorm``, ``MultiHeadSelfAttention``, ``SGD`` and so on.
"""

from repro.nn.module import Module, Parameter, Sequential, ModuleList
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm2d, LayerNorm
from repro.nn.activation import ReLU, GELU, Tanh, Sigmoid, Identity
from repro.nn.pooling import MaxPool2d, AvgPool2d, GlobalAvgPool2d
from repro.nn.dropout import Dropout
from repro.nn.embedding import Embedding
from repro.nn.mlp import MLP
from repro.nn.attention import MultiHeadSelfAttention, TransformerBlock
from repro.nn.optim import SGD, Adam
from repro.nn.scheduler import StepLR, CosineAnnealingLR, ConstantLR
from repro.nn.loss import CrossEntropyLoss, KnowledgeDistillationLoss, MSELoss
from repro.nn import init
from repro.nn.serialization import save_state_dict, load_state_dict, state_dicts_allclose

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "GELU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Embedding",
    "MLP",
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "SGD",
    "Adam",
    "StepLR",
    "CosineAnnealingLR",
    "ConstantLR",
    "CrossEntropyLoss",
    "KnowledgeDistillationLoss",
    "MSELoss",
    "init",
    "save_state_dict",
    "load_state_dict",
    "state_dicts_allclose",
]
