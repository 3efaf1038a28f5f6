"""Domain rendering styles and image-space transforms.

Each *domain* of a synthetic dataset is described by a :class:`DomainStyle`:
a colour mixing matrix, background colour, brightness/contrast curve, a
domain texture (a fixed oriented grating overlaid on every image of the
domain), additive noise and an optional polarity inversion.  Styles are large
enough covariate shifts that a plain CNN trained on one domain degrades
sharply on the others -- the precondition for the catastrophic-forgetting
phenomenon the paper studies -- while the class-defining spatial pattern
stays recoverable in every domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


@dataclass
class DomainStyle:
    """Parameters of one domain's rendering pipeline."""

    name: str
    color_matrix: np.ndarray  # (3, 3) mixing of [pattern, 1-pattern, texture]
    background: np.ndarray  # (3,) base colour added to every pixel
    brightness: float = 0.0
    contrast: float = 1.0
    noise_std: float = 0.05
    invert: bool = False
    texture_frequency: float = 0.0
    texture_angle: float = 0.0
    texture_weight: float = 0.0
    channel_permutation: Tuple[int, int, int] = (0, 1, 2)
    blur: bool = False
    orientation: int = 0  # index into the 8 dihedral transforms (rot90 x flip)

    def __post_init__(self) -> None:
        self.color_matrix = np.asarray(self.color_matrix, dtype=np.float64)
        self.background = np.asarray(self.background, dtype=np.float64)
        if self.color_matrix.shape != (3, 3):
            raise ValueError("color_matrix must be 3x3")
        if self.background.shape != (3,):
            raise ValueError("background must have 3 entries")
        if not 0 <= self.orientation < 8:
            raise ValueError("orientation must index one of the 8 dihedral transforms")


def sample_domain_style(name: str, rng: np.random.Generator) -> DomainStyle:
    """Draw a random but deterministic (given ``rng``) rendering style for a domain.

    The style is built so that the *channel and polarity that carry the class
    signal differ per domain*: one randomly chosen channel is dominated by the
    class pattern, another by its inverse, the third mostly by the domain
    texture.  A CNN that latches onto one domain's channel/polarity layout
    therefore transfers poorly to the next domain, which is the covariate
    shift that drives catastrophic forgetting in the paper's experiments.
    """
    dominant, inverse, textured = rng.permutation(3)
    color_matrix = np.zeros((3, 3))
    color_matrix[dominant] = [rng.uniform(0.9, 1.1), rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.15)]
    color_matrix[inverse] = [rng.uniform(0.0, 0.1), rng.uniform(0.5, 0.9), rng.uniform(0.0, 0.2)]
    color_matrix[textured] = [rng.uniform(0.0, 0.25), rng.uniform(0.0, 0.25), rng.uniform(0.4, 0.8)]
    background = rng.uniform(0.0, 0.35, size=3)
    return DomainStyle(
        name=name,
        color_matrix=color_matrix,
        background=background,
        brightness=rng.uniform(-0.1, 0.1),
        contrast=rng.uniform(0.8, 1.3),
        noise_std=rng.uniform(0.02, 0.08),
        invert=bool(rng.random() < 0.5),
        texture_frequency=rng.uniform(1.0, 4.0),
        texture_angle=rng.uniform(0.0, np.pi),
        texture_weight=rng.uniform(0.05, 0.3),
        channel_permutation=tuple(rng.permutation(3).tolist()),
        blur=bool(rng.random() < 0.25),
        orientation=int(rng.integers(0, 8)),
    )


def dihedral_transform(pattern: np.ndarray, orientation: int) -> np.ndarray:
    """Apply one of the 8 square symmetries (rotations and flips) to ``(..., H, W)`` patterns.

    Each domain renders the class pattern in its own orientation; within a
    domain the task stays equally learnable, but convolutional features tuned
    to one orientation transfer poorly to another -- a strong, purely
    covariate domain shift of the kind that drives catastrophic forgetting.
    """
    rotated = np.rot90(pattern, k=orientation % 4, axes=(-2, -1))
    if orientation >= 4:
        rotated = np.flip(rotated, axis=-1)
    return rotated.copy()


def domain_texture(size: int, style: DomainStyle) -> np.ndarray:
    """The domain's fixed oriented grating, shape ``(size, size)`` in [0, 1]."""
    if style.texture_weight <= 0.0 or style.texture_frequency <= 0.0:
        return np.zeros((size, size))
    ys, xs = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    projected = xs * np.cos(style.texture_angle) + ys * np.sin(style.texture_angle)
    grating = 0.5 * (1.0 + np.sin(2.0 * np.pi * style.texture_frequency * projected))
    return grating


def box_blur(image: np.ndarray) -> np.ndarray:
    """Cheap 3x3 box blur applied channel-wise to ``(..., C, H, W)`` images."""
    height, width = image.shape[-2:]
    padded = np.pad(image, [(0, 0)] * (image.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    out = np.zeros_like(image)
    for dy in range(3):
        for dx in range(3):
            out += padded[..., dy : dy + height, dx : dx + width]
    return out / 9.0


def render_pattern(
    pattern: np.ndarray,
    style: DomainStyle,
    noise: Optional[np.ndarray] = None,
    texture: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Render class patterns ``(..., H, W)`` into ``(..., 3, H, W)`` images under a domain style.

    Every step is elementwise per sample, so a stack renders to the images its
    samples render to one at a time.  ``noise`` (shaped like the images; the
    caller draws it, ``rng.normal(0, style.noise_std, ...)``) is added before
    the final clip.  ``texture`` is ``domain_texture(size, style)``; a caller
    rendering under one style many times computes it once and passes it in.
    """
    pattern = dihedral_transform(pattern, style.orientation)
    if texture is None:
        texture = domain_texture(pattern.shape[-1], style)
    layers = [pattern, 1.0 - pattern, np.broadcast_to(texture, pattern.shape)]
    stack = np.stack(layers, axis=-3)  # (..., 3, H, W)
    # In place from here on: each step writes the values its out-of-place
    # form would, without a fresh image-sized array per step.
    image = np.einsum("ck,...khw->...chw", style.color_matrix, stack)
    image += style.background[:, None, None]
    if style.texture_weight > 0:
        image *= 1.0 - style.texture_weight
        image += style.texture_weight * texture
    image -= 0.5
    image *= style.contrast
    image += 0.5
    image += style.brightness
    if style.invert:
        np.subtract(1.0, image, out=image)
    image = np.take(image, list(style.channel_permutation), axis=-3)
    if style.blur:
        image = box_blur(image)
    if noise is not None:
        image += noise
    return np.clip(image, 0.0, 1.0, out=image)


def shift_pattern(pattern: np.ndarray, dy, dx) -> np.ndarray:
    """Translate ``(..., H, W)`` patterns by ``(dy, dx)`` pixels with zero padding (sample jitter).

    ``dy`` and ``dx`` are ints, or integer arrays with one shift per pattern
    (shape ``pattern.shape[:-2]``).
    """
    height, width = pattern.shape[-2:]
    dy, dx = np.asarray(dy), np.asarray(dx)
    pad = int(max(np.abs(dy).max(initial=0), np.abs(dx).max(initial=0)))
    padded = np.pad(pattern, [(0, 0)] * (pattern.ndim - 2) + [(pad, pad), (pad, pad)])
    lead = np.indices(pattern.shape[:-2], sparse=True)  # one index per leading axis
    rows = (np.arange(height) + pad - dy[..., None])[..., :, None]  # (..., H, 1)
    cols = (np.arange(width) + pad - dx[..., None])[..., None, :]  # (..., 1, W)
    return padded[tuple(axis[..., None, None] for axis in lead) + (rows, cols)]


__all__ = [
    "DomainStyle",
    "sample_domain_style",
    "domain_texture",
    "dihedral_transform",
    "render_pattern",
    "shift_pattern",
    "box_blur",
]
