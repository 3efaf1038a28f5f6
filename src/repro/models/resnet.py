"""ResNet10 feature extractor.

The paper uses ResNet10 as the classification backbone's feature extractor
``h``.  ResNet10 is the smallest member of the ResNet family: a stem
convolution followed by four stages of a single BasicBlock each.  Widths and
strides are configurable so the tiny test/bench presets can shrink the
network while keeping the architecture identical.

Each layer (conv, batch norm, the residual add where there is one, ReLU) is
one :func:`repro.autograd.functional.conv_bn` op over its ``Conv2d`` weight
and its ``BatchNorm2d`` parameters and buffers: a forward is 12 tape records
(the stem's transpose, the stem and ten block layers).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.conv import Conv2d
from repro.nn.module import Module, ModuleList
from repro.nn.norm import BatchNorm2d


def _conv_bn(
    conv: Conv2d, bn: BatchNorm2d, x: Tensor, residual: Optional[Tensor] = None, relu: bool = True
) -> Tensor:
    """``relu(bn(conv(x)) + residual)`` as one op, in ``bn``'s train or eval mode."""
    return F.conv_bn(
        x, conv.weight, bn.weight, bn.bias, residual, stride=conv.stride, padding=conv.padding,
        running_mean=bn.running_mean, running_var=bn.running_var, training=bn.training,
        momentum=bn.momentum, eps=bn.eps, relu=relu,
    )


class BasicBlock(Module):
    """Standard two-convolution residual block with an optional projection shortcut,
    over batch-last ``(C, H, W, N)`` feature maps."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut_conv = Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng)
            self.shortcut_bn = BatchNorm2d(out_channels)
        else:
            self.shortcut_conv = None
            self.shortcut_bn = None

    def forward(self, x: Tensor) -> Tensor:
        out = _conv_bn(self.conv1, self.bn1, x)
        shortcut = x
        if self.shortcut_conv is not None:
            shortcut = _conv_bn(self.shortcut_conv, self.shortcut_bn, x, relu=False)
        return _conv_bn(self.conv2, self.bn2, out, residual=shortcut)


class ResNet10(Module):
    """Four-stage residual CNN returning the final convolutional feature map.

    Takes ``(N, C, H, W)`` images and returns a batch-last ``(C, H, W, N)``
    map: the images are transposed once, at the stem, and every layer after
    it keeps the batch last (see :func:`repro.autograd.functional.conv2d`).

    Parameters
    ----------
    in_channels:
        Number of input image channels (3 for the synthetic RGB datasets).
    base_width:
        Channel count of the stem; subsequent stages use the ``widths``
        multipliers.
    stage_strides:
        Stride of the (single) BasicBlock in each of the four stages.  The
        default halves the spatial resolution twice, which maps a 16x16 image
        to a 4x4 feature map (16 patch tokens).
    """

    def __init__(
        self,
        in_channels: int = 3,
        base_width: int = 16,
        widths: Sequence[float] = (1, 2, 2, 2),
        stage_strides: Sequence[int] = (1, 2, 2, 1),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if len(widths) != 4 or len(stage_strides) != 4:
            raise ValueError("ResNet10 expects exactly four stages")
        self.stem_conv = Conv2d(in_channels, base_width, 3, stride=1, padding=1, bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(base_width)
        channels = [base_width] + [int(round(base_width * w)) for w in widths]
        blocks = []
        for index in range(4):
            blocks.append(
                BasicBlock(channels[index], channels[index + 1], stride=stage_strides[index], rng=rng)
            )
        self.blocks = ModuleList(blocks)
        self.out_channels = channels[-1]

    def forward(self, x: Tensor) -> Tensor:
        out = _conv_bn(self.stem_conv, self.stem_bn, x.transpose(1, 2, 3, 0))
        for block in self.blocks:
            out = block(out)
        return out

    def output_spatial(self, input_size: int) -> Tuple[int, int]:
        """Return the (height, width) of the feature map for a square input."""
        size = input_size
        for block in self.blocks:
            stride = block.conv1.stride
            size = (size + stride - 1) // stride
        return size, size


__all__ = ["ResNet10", "BasicBlock"]
