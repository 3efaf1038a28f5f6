"""Procedural domain-shift image datasets.

A dataset is described by a :class:`DomainDatasetSpec`: a number of classes,
a list of named domains and per-domain sample counts.  Each class owns a
spatial *pattern* (an oriented grating plus class-specific Gaussian blobs)
and each domain owns a :class:`repro.datasets.transforms.DomainStyle`
rendering pipeline.  A sample is a jittered copy of its class pattern rendered
under its domain's style plus per-sample noise.

The construction has the two properties the paper's evaluation relies on:

* **Shared label space across domains** -- the class pattern geometry is
  identical in every domain, so domain-invariant knowledge exists and can in
  principle be learned (what RefFiL's GPL/DPCL losses are for).
* **Large covariate shift between domains** -- colour statistics, background,
  texture and polarity differ per domain, so a model finetuned on the next
  domain rapidly degrades on earlier ones (catastrophic forgetting), which is
  what the Avg/Last/FGT/BwT metrics quantify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import get_default_dtype
from repro.datasets.base import ArrayDataset
from repro.datasets.transforms import (
    DomainStyle,
    domain_texture,
    render_pattern,
    sample_domain_style,
    shift_pattern,
)
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class DomainDatasetSpec:
    """Static description of a synthetic multi-domain dataset."""

    name: str
    num_classes: int
    domains: Tuple[str, ...]
    image_size: int = 16
    channels: int = 3
    train_per_domain: int = 200
    test_per_domain: int = 80
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("a classification dataset needs at least 2 classes")
        if len(self.domains) < 2:
            raise ValueError("a domain-incremental dataset needs at least 2 domains")
        if self.channels != 3:
            raise ValueError("the synthetic renderer produces RGB images (channels=3)")
        if self.train_per_domain < self.num_classes or self.test_per_domain < self.num_classes:
            raise ValueError("per-domain sample counts must be at least num_classes")

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def domain_index(self, domain: str) -> int:
        try:
            return self.domains.index(domain)
        except ValueError as error:
            raise KeyError(f"unknown domain {domain!r} for dataset {self.name!r}") from error

    def scaled(
        self,
        train_per_domain: Optional[int] = None,
        test_per_domain: Optional[int] = None,
        num_classes: Optional[int] = None,
        image_size: Optional[int] = None,
    ) -> "DomainDatasetSpec":
        """Return a copy with smaller sample counts / class counts (for tiny presets)."""
        return DomainDatasetSpec(
            name=self.name,
            num_classes=num_classes if num_classes is not None else self.num_classes,
            domains=self.domains,
            image_size=image_size if image_size is not None else self.image_size,
            channels=self.channels,
            train_per_domain=train_per_domain if train_per_domain is not None else self.train_per_domain,
            test_per_domain=test_per_domain if test_per_domain is not None else self.test_per_domain,
            seed=self.seed,
        )


def class_pattern(spec: DomainDatasetSpec, class_index: int) -> np.ndarray:
    """Deterministic spatial pattern of a class, shape ``(H, W)`` in ``[0, 1]``.

    Classes are spread evenly over the space of grating orientations and
    frequencies (rather than drawn independently, which could place two
    classes arbitrarily close together), and each class additionally gets two
    Gaussian blobs at class-specific positions on a ring.  The result is a set
    of crisp, well-separated spatial signatures that survive every domain's
    rendering style.
    """
    rng = spawn_rng(spec.seed, spec.name, "class", class_index)
    size = spec.image_size
    ys, xs = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    # Spread orientations/frequencies deterministically over the class range.
    angle = np.pi * (class_index / spec.num_classes) + rng.uniform(-0.1, 0.1)
    frequency = 1.5 + 2.5 * ((class_index * 7) % spec.num_classes) / spec.num_classes
    phase = rng.uniform(0, 2 * np.pi)
    projected = xs * np.cos(angle) + ys * np.sin(angle)
    grating = 0.5 * (1.0 + np.sin(2 * np.pi * frequency * projected + phase))
    pattern = 0.4 * grating
    # Two blobs on a ring at class-specific angular positions.
    for blob_index in range(2):
        theta = 2 * np.pi * (class_index + 0.37 * blob_index) / spec.num_classes + blob_index * np.pi
        cy = 0.5 + 0.28 * np.sin(theta)
        cx = 0.5 + 0.28 * np.cos(theta)
        sigma = 0.10 + 0.05 * ((class_index + blob_index) % 3) / 3.0
        blob = np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma ** 2)))
        pattern += 0.8 * blob
    pattern = pattern / pattern.max()
    # Sharpen contrast so the signature stays visible after domain rendering.
    pattern = pattern ** 2
    return pattern


def class_patterns(spec: DomainDatasetSpec) -> np.ndarray:
    """Every class's :func:`class_pattern`, stacked ``(num_classes, H, W)`` and read-only."""
    patterns = np.stack([class_pattern(spec, k) for k in range(spec.num_classes)])
    patterns.flags.writeable = False
    return patterns


def domain_style(spec: DomainDatasetSpec, domain_index: int) -> DomainStyle:
    """Deterministic rendering style for one domain of the dataset."""
    if not 0 <= domain_index < spec.num_domains:
        raise IndexError(f"domain index {domain_index} out of range for {spec.name}")
    rng = spawn_rng(spec.seed, spec.name, "domain", domain_index)
    return sample_domain_style(spec.domains[domain_index], rng)


def _generate_samples(
    spec: DomainDatasetSpec,
    domain_index: int,
    split: str,
    count: int,
    patterns: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    style = domain_style(spec, domain_index)
    texture = domain_texture(spec.image_size, style)  # one per (size, style), not per sample
    rng = spawn_rng(spec.seed, spec.name, "samples", domain_index, split)
    labels = np.arange(count, dtype=np.int64) % spec.num_classes
    max_shift = max(1, spec.image_size // 16)
    # The per-sample loop only draws, in the stream's order (shift, amplitude,
    # noise); the rendering below is elementwise, so it runs once on the stack.
    shifts = np.empty((count, 2), dtype=np.int64)
    amplitudes = np.empty(count)
    noisy = style.noise_std > 0
    noise = np.empty((count, 3, spec.image_size, spec.image_size)) if noisy else None
    for i in range(count):
        shifts[i] = rng.integers(-max_shift, max_shift + 1, size=2)
        amplitudes[i] = rng.uniform(0.9, 1.1)
        if noisy:
            noise[i] = rng.normal(0.0, style.noise_std, size=noise.shape[1:])
    jittered = shift_pattern(patterns[labels], shifts[:, 0], shifts[:, 1])
    jittered = np.clip(jittered * amplitudes[:, None, None], 0.0, 1.0)
    images = render_pattern(jittered, style, noise, texture=texture)
    order = rng.permutation(count)
    return images[order], labels[order]


def generate_domain_split(
    spec: DomainDatasetSpec,
    domain_index: int,
    split: str = "train",
    patterns: Optional[np.ndarray] = None,
) -> ArrayDataset:
    """Generate the train or test split of one domain as an :class:`ArrayDataset`.

    Samples are always rendered in float64 and then cast to the active
    compute dtype, so a float32 split is the float64 generation rounded once.
    ``patterns`` is the spec's :func:`class_patterns` where the caller holds
    them (a :class:`SyntheticDomainDataset` renders them once); they are
    rendered here otherwise.
    """
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    count = spec.train_per_domain if split == "train" else spec.test_per_domain
    if patterns is None:
        patterns = class_patterns(spec)
    images, labels = _generate_samples(spec, domain_index, split, count, patterns)
    return ArrayDataset(images, labels)


class SyntheticDomainDataset:
    """All domains of a spec in a task order, generated lazily and cached.

    This is the object the continual-learning scenario iterates over: each
    incremental task corresponds to one domain (same classes, new style).
    ``domain_order`` (default: the spec's order) is a permutation of the
    spec's domain indices; task ``i`` is domain ``domain_order[i]``, whose
    splits are the same bytes in every order.

    Splits are generated at the active compute dtype and cached, so each is
    cast once: a run that builds its tasks under ``default_dtype(float32)``
    gets float32 splits and holds no float64 image array.  The cache holds
    one dtype at a time; a request under another dtype evicts it and
    generates afresh, so a float64 split is always the float64 generation
    byte for byte, whatever was requested before.  The class patterns every
    split renders from are drawn once per dataset, on the first split.
    """

    def __init__(
        self, spec: DomainDatasetSpec, domain_order: Optional[Sequence[int]] = None
    ) -> None:
        identity = list(range(spec.num_domains))
        order = identity if domain_order is None else [int(i) for i in domain_order]
        if sorted(order) != identity:
            raise ValueError(
                f"domain_order must be a permutation of range({spec.num_domains}), got {order}"
            )
        self.spec = spec
        self._order = order
        self._cache: Dict[Tuple[int, str], ArrayDataset] = {}
        self._cache_dtype = np.dtype(np.float64)
        self._patterns: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def domains(self) -> Tuple[str, ...]:
        return tuple(self.spec.domains[i] for i in self._order)

    def domain_split(self, domain_index: int, split: str) -> ArrayDataset:
        dtype = get_default_dtype()
        if dtype != self._cache_dtype:
            self._cache.clear()
            self._cache_dtype = dtype
        key = (self._order[domain_index], split)
        if key not in self._cache:
            if self._patterns is None:
                self._patterns = class_patterns(self.spec)
            self._cache[key] = generate_domain_split(self.spec, *key, patterns=self._patterns)
        return self._cache[key]

    def train(self, domain_index: int) -> ArrayDataset:
        return self.domain_split(domain_index, "train")

    def test(self, domain_index: int) -> ArrayDataset:
        return self.domain_split(domain_index, "test")

    def reordered(self, domain_order: Sequence[int]) -> "SyntheticDomainDataset":
        """The same spec's domains in ``domain_order`` (indices into the spec).

        Used by the Table II / Table IV "new domain order" experiments: the
        per-domain data is identical, only the order in which tasks are
        encountered changes.
        """
        return SyntheticDomainDataset(self.spec, domain_order)


__all__ = [
    "DomainDatasetSpec",
    "DomainStyle",
    "SyntheticDomainDataset",
    "class_pattern",
    "class_patterns",
    "domain_style",
    "generate_domain_split",
]
