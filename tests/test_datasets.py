"""Tests for the synthetic domain-shift datasets, loaders and registry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.tensor import default_dtype
from repro.datasets import (
    ArrayDataset,
    DataLoader,
    DomainDatasetSpec,
    SyntheticDomainDataset,
    available_datasets,
    build_dataset,
    generate_domain_split,
    get_alternate_domain_order,
    get_dataset_spec,
)
from repro.datasets import transforms
from repro.datasets.synthetic import class_pattern, domain_style
from repro.datasets.transforms import DomainStyle, dihedral_transform, render_pattern, shift_pattern


class TestArrayDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 16, 16)), np.zeros(3))
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 3, 4, 4)), np.zeros(2))

    def test_subset(self):
        data = ArrayDataset(np.zeros((6, 3, 4, 4)), np.array([0, 1, 2, 0, 1, 2]))
        sub = data.subset(np.array([0, 3]))
        assert len(sub) == 2
        assert np.all(sub.labels == 0)

    def test_concatenate(self):
        a = ArrayDataset(np.zeros((2, 3, 4, 4)), np.array([0, 1]))
        b = ArrayDataset(np.ones((3, 3, 4, 4)), np.array([1, 0, 1]))
        merged = ArrayDataset.concatenate((a, b))
        assert len(merged) == 5
        with pytest.raises(ValueError):
            ArrayDataset.concatenate(())

    def test_fingerprint_is_content_addressed(self):
        """Equal contents share a fingerprint (across instances), any content
        change — images, labels, or a task-boundary concatenation — gets a
        new one; this keys the parallel executor's shard cache."""
        images = np.random.default_rng(0).random((6, 3, 4, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        data = ArrayDataset(images, labels)
        twin = ArrayDataset(images.copy(), labels.copy())
        assert data.fingerprint() == twin.fingerprint()
        assert data.fingerprint() is data.fingerprint()  # cached
        assert data.subset(np.array([0, 1])).fingerprint() != data.fingerprint()
        relabeled = ArrayDataset(images, np.array([1, 1, 2, 0, 1, 2]))
        assert relabeled.fingerprint() != data.fingerprint()
        grown = ArrayDataset.concatenate((data, data.subset(np.array([0]))))
        assert grown.fingerprint() != data.fingerprint()

    def test_fingerprint_distinguishes_dtype(self):
        images = np.zeros((2, 3, 4, 4))
        labels = np.zeros(2, dtype=np.int64)
        wide = ArrayDataset(images, labels, dtype=np.float64)
        narrow = ArrayDataset(images, labels, dtype=np.float32)
        assert wide.fingerprint() != narrow.fingerprint()


class TestSpec:
    def test_registered_specs_match_paper_structure(self):
        assert set(available_datasets()) == {"digits_five", "office_caltech", "pacs", "fed_domainnet"}
        assert get_dataset_spec("digits_five").num_domains == 5
        assert get_dataset_spec("digits_five").num_classes == 10
        assert get_dataset_spec("office_caltech").num_domains == 4
        assert get_dataset_spec("pacs").num_classes == 7
        assert get_dataset_spec("fed_domainnet").num_domains == 6

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            get_dataset_spec("imagenet")

    def test_alternate_order_is_permutation(self):
        for name in available_datasets():
            spec = get_dataset_spec(name)
            alternate = get_alternate_domain_order(name)
            assert sorted(alternate) == sorted(spec.domains)
            assert alternate != spec.domains

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DomainDatasetSpec(name="x", num_classes=1, domains=("a", "b"))
        with pytest.raises(ValueError):
            DomainDatasetSpec(name="x", num_classes=3, domains=("a",))
        with pytest.raises(ValueError):
            DomainDatasetSpec(name="x", num_classes=3, domains=("a", "b"), train_per_domain=2)

    def test_scaled_copy(self, tiny_spec):
        assert tiny_spec.num_classes == 3
        assert tiny_spec.train_per_domain == 24
        assert tiny_spec.domains == get_dataset_spec("office_caltech").domains

    def test_domain_index(self, tiny_spec):
        assert tiny_spec.domain_index("amazon") == 0
        with pytest.raises(KeyError):
            tiny_spec.domain_index("sketch")


class TestGeneration:
    def test_split_shapes_and_labels(self, tiny_spec):
        train = generate_domain_split(tiny_spec, 0, "train")
        assert train.images.shape == (24, 3, 16, 16)
        assert set(np.unique(train.labels)) == {0, 1, 2}
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_generation_is_deterministic(self, tiny_spec):
        a = generate_domain_split(tiny_spec, 1, "train")
        b = generate_domain_split(tiny_spec, 1, "train")
        assert np.allclose(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_train_and_test_differ(self, tiny_spec):
        train = generate_domain_split(tiny_spec, 0, "train")
        test = generate_domain_split(tiny_spec, 0, "test")
        assert train.images.shape[0] != test.images.shape[0] or not np.allclose(
            train.images[: len(test)], test.images
        )

    def test_domains_differ_visually(self, tiny_spec):
        d0 = generate_domain_split(tiny_spec, 0, "train").images
        d1 = generate_domain_split(tiny_spec, 1, "train").images
        assert np.abs(d0.mean(axis=0) - d1.mean(axis=0)).mean() > 0.02

    def test_invalid_split_name(self, tiny_spec):
        with pytest.raises(ValueError):
            generate_domain_split(tiny_spec, 0, "validation")

    def test_class_patterns_are_distinct(self, tiny_spec):
        patterns = [class_pattern(tiny_spec, k) for k in range(tiny_spec.num_classes)]
        for i in range(len(patterns)):
            for j in range(i + 1, len(patterns)):
                assert np.abs(patterns[i] - patterns[j]).mean() > 0.05

    def test_domain_style_out_of_range(self, tiny_spec):
        with pytest.raises(IndexError):
            domain_style(tiny_spec, 99)

    def test_within_domain_linear_separability(self, tiny_spec):
        """The class signal must be recoverable within a domain (sanity of the generator)."""
        spec = tiny_spec.scaled(train_per_domain=60, test_per_domain=30)
        train = generate_domain_split(spec, 0, "train")
        test = generate_domain_split(spec, 0, "test")
        x = train.images.reshape(len(train), -1)
        xt = test.images.reshape(len(test), -1)
        x = np.hstack([x, np.ones((len(x), 1))])
        xt = np.hstack([xt, np.ones((len(xt), 1))])
        onehot = np.eye(spec.num_classes)[train.labels]
        weights = np.linalg.solve(x.T @ x + 0.1 * np.eye(x.shape[1]), x.T @ onehot)
        accuracy = ((xt @ weights).argmax(axis=1) == test.labels).mean()
        assert accuracy > 0.7


# --------------------------------------------------------------------------- #
# The per-sample renderer the stacked one replaced: the oracle
# --------------------------------------------------------------------------- #
def _reference_render(pattern, style, rng):
    """``render_pattern`` as it was, one ``(H, W)`` pattern at a time, texture
    recomputed per sample and the noise drawn inside."""
    pattern = np.rot90(pattern, k=style.orientation % 4)
    if style.orientation >= 4:
        pattern = np.fliplr(pattern)
    texture = transforms.domain_texture(pattern.shape[0], style)
    stack = np.stack([pattern, 1.0 - pattern, texture], axis=0)
    image = np.einsum("ck,khw->chw", style.color_matrix, stack)
    image = image + style.background[:, None, None]
    if style.texture_weight > 0:
        image = (1.0 - style.texture_weight) * image + style.texture_weight * texture[None]
    image = (image - 0.5) * style.contrast + 0.5 + style.brightness
    if style.invert:
        image = 1.0 - image
    image = image[list(style.channel_permutation)]
    if style.blur:
        padded = np.pad(image, ((0, 0), (1, 1), (1, 1)), mode="edge")
        blurred = np.zeros_like(image)
        for dy in range(3):
            for dx in range(3):
                blurred += padded[:, dy : dy + image.shape[1], dx : dx + image.shape[2]]
        image = blurred / 9.0
    if style.noise_std > 0:
        image = image + rng.normal(0.0, style.noise_std, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def _reference_shift(pattern, dy, dx):
    shifted = np.zeros_like(pattern)
    h, w = pattern.shape
    src = slice(max(0, -dy), min(h, h - dy)), slice(max(0, -dx), min(w, w - dx))
    shifted[max(0, dy) : min(h, h + dy), max(0, dx) : min(w, w + dx)] = pattern[src]
    return shifted


def _reference_samples(spec, domain_index, split, count):
    """``_generate_samples`` as the per-sample loop it was: every sample
    jittered and rendered on its own, its draws made as it goes."""
    from repro.utils.rng import spawn_rng

    style = domain_style(spec, domain_index)
    patterns = [class_pattern(spec, k) for k in range(spec.num_classes)]
    rng = spawn_rng(spec.seed, spec.name, "samples", domain_index, split)
    images = np.zeros((count, 3, spec.image_size, spec.image_size))
    labels = np.zeros(count, dtype=np.int64)
    max_shift = max(1, spec.image_size // 16)
    for i in range(count):
        label = i % spec.num_classes
        labels[i] = label
        dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
        jittered = _reference_shift(patterns[label], int(dy), int(dx))
        amplitude = rng.uniform(0.9, 1.1)
        jittered = np.clip(jittered * amplitude, 0.0, 1.0)
        images[i] = _reference_render(jittered, style, rng)
    order = rng.permutation(count)
    return images[order], labels[order]


def _e2e_specs():
    """The dataset specs the end-to-end workloads build (at their default and
    reduced sizes), with the content seed moved as a non-zero run seed moves it."""
    from dataclasses import replace

    from repro.experiments.config import ExperimentScale, scaled_config

    office = [scaled_config("office_caltech", s).spec for s in (ExperimentScale.SMALL, ExperimentScale.TINY)]
    stream = [
        get_dataset_spec("fed_domainnet").scaled(train_per_domain=48, test_per_domain=test, num_classes=6)
        for test in (128, 32)
    ]
    fleet = [
        get_dataset_spec("digits_five").scaled(train_per_domain=train, test_per_domain=40, num_classes=4)
        for train in (96, 48)
    ]
    return [replace(spec, seed=spec.seed + 3) for spec in office + stream + fleet]


def _assert_matches_the_per_sample_loop(spec):
    for domain_index in range(spec.num_domains):
        for split, count in (("train", spec.train_per_domain), ("test", spec.test_per_domain)):
            data = generate_domain_split(spec, domain_index, split)
            images, labels = _reference_samples(spec, domain_index, split, count)
            # Noise draws and the final permutation come from one stream, so
            # equal arrays also mean an unchanged draw order.
            assert data.images.tobytes() == images.tobytes()
            assert np.array_equal(data.labels, labels)


class TestTextureComputedOncePerDomain:
    @pytest.mark.parametrize("name", available_datasets())
    def test_samples_identical_to_per_sample_texture_loop(self, name):
        from repro.experiments.config import ExperimentScale, scaled_config

        _assert_matches_the_per_sample_loop(scaled_config(name, ExperimentScale.TINY).spec)

    @pytest.mark.parametrize(
        "spec", _e2e_specs(), ids=lambda s: f"{s.name}-{s.train_per_domain}-{s.test_per_domain}"
    )
    def test_e2e_workload_splits_identical_to_the_per_sample_loop(self, spec):
        _assert_matches_the_per_sample_loop(spec)

    def test_texture_is_built_once_per_split(self, tiny_spec, monkeypatch):
        from repro.datasets import synthetic, transforms

        calls = []
        real = transforms.domain_texture

        def counting(size, style):
            calls.append(size)
            return real(size, style)

        monkeypatch.setattr(transforms, "domain_texture", counting)
        monkeypatch.setattr(synthetic, "domain_texture", counting)
        generate_domain_split(tiny_spec, 0, "train")
        assert calls == [tiny_spec.image_size]


class TestSyntheticDomainDataset:
    def test_caches_splits(self, tiny_spec):
        dataset = SyntheticDomainDataset(tiny_spec)
        assert dataset.train(0) is dataset.train(0)

    def test_split_is_handed_out_at_the_active_dtype_and_cast_once(self, tiny_spec):
        dataset = SyntheticDomainDataset(tiny_spec)
        fresh = generate_domain_split(tiny_spec, 0, "test")  # float64 reference
        with default_dtype(np.float32):
            narrow = dataset.test(0)
            assert narrow is dataset.test(0)
        assert narrow.images.dtype == np.float32
        assert narrow.images.tobytes() == fresh.images.astype(np.float32).tobytes()
        # A float64 request after a float32 one is the float64 generation
        # byte for byte, not the float32 split widened.
        wide = dataset.test(0)
        assert wide.images.dtype == np.float64
        assert wide.images.tobytes() == fresh.images.tobytes()
        assert np.array_equal(wide.labels, fresh.labels)
        with default_dtype(np.float32):  # one dtype cached at a time
            assert dataset.test(0) is not narrow
            assert dataset.test(0).images.tobytes() == narrow.images.tobytes()

    def test_reordered_view(self, tiny_spec):
        dataset = SyntheticDomainDataset(tiny_spec)
        view = dataset.reordered([1, 0, 2, 3])
        assert view.domains[0] == dataset.domains[1]
        assert np.allclose(view.train(0).images, dataset.train(1).images)
        with pytest.raises(ValueError):
            dataset.reordered([0, 0, 1, 2])

    def test_build_dataset_registry(self):
        dataset = build_dataset("pacs")
        assert dataset.num_classes == 7


class TestTransforms:
    def test_dihedral_transforms_are_distinct_and_volume_preserving(self):
        pattern = np.random.default_rng(0).random((8, 8))
        transformed = [dihedral_transform(pattern, k) for k in range(8)]
        for image in transformed:
            assert image.shape == pattern.shape
            assert np.allclose(image.sum(), pattern.sum())
        assert not np.allclose(transformed[0], transformed[1])

    def test_shift_pattern_moves_mass(self):
        pattern = np.zeros((5, 5))
        pattern[2, 2] = 1.0
        shifted = shift_pattern(pattern, 1, -1)
        assert shifted[3, 1] == 1.0
        assert shifted[2, 2] == 0.0

    def test_render_produces_valid_rgb(self, tiny_spec):
        style = domain_style(tiny_spec, 0)
        noise = np.random.default_rng(0).normal(0.0, style.noise_std, size=(3, 16, 16))
        image = render_pattern(class_pattern(tiny_spec, 0), style, noise)
        assert image.shape == (3, 16, 16)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_a_stack_renders_to_its_samples_rendered_one_at_a_time(self, tiny_spec):
        rng = np.random.default_rng(1)
        patterns = rng.random((5, 16, 16))
        shifts = rng.integers(-2, 3, size=(5, 2))
        noise = rng.normal(0.0, 0.05, size=(5, 3, 16, 16))
        for domain_index in range(tiny_spec.num_domains):
            style = domain_style(tiny_spec, domain_index)
            stacked = render_pattern(shift_pattern(patterns, shifts[:, 0], shifts[:, 1]), style, noise)
            assert stacked.shape == (5, 3, 16, 16)
            for i, (dy, dx) in enumerate(shifts):
                one = render_pattern(shift_pattern(patterns[i], dy, dx), style, noise[i])
                assert one.tobytes() == stacked[i].tobytes()

    def test_style_validation(self):
        with pytest.raises(ValueError):
            DomainStyle(name="bad", color_matrix=np.zeros((2, 2)), background=np.zeros(3))
        with pytest.raises(ValueError):
            DomainStyle(name="bad", color_matrix=np.zeros((3, 3)), background=np.zeros(3), orientation=9)


class TestDataLoader:
    def test_batches_cover_dataset(self, tiny_spec):
        data = generate_domain_split(tiny_spec, 0, "train")
        loader = DataLoader(data, batch_size=7, shuffle=False)
        total = sum(len(labels) for _, labels in loader)
        assert total == len(data)
        assert len(loader) == (len(data) + 6) // 7

    def test_normalization_to_unit_range(self, tiny_spec):
        data = generate_domain_split(tiny_spec, 0, "train")
        images, _ = next(iter(DataLoader(data, batch_size=8, shuffle=False)))
        assert images.data.min() >= -1.0 and images.data.max() <= 1.0
        raw, _ = next(iter(DataLoader(data, batch_size=8, shuffle=False, normalize=False)))
        assert raw.data.min() >= 0.0

    def test_shuffle_determinism_with_seed(self, tiny_spec):
        data = generate_domain_split(tiny_spec, 0, "train")
        first = [labels for _, labels in DataLoader(data, batch_size=8, rng=np.random.default_rng(3))]
        second = [labels for _, labels in DataLoader(data, batch_size=8, rng=np.random.default_rng(3))]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_drop_last(self, tiny_spec):
        data = generate_domain_split(tiny_spec, 0, "train")
        loader = DataLoader(data, batch_size=7, drop_last=True, rng=np.random.default_rng(0))
        assert all(len(labels) == 7 for _, labels in loader)

    def test_an_unseeded_shuffle_is_refused(self, tiny_spec):
        data = generate_domain_split(tiny_spec, 0, "train")
        with pytest.raises(ValueError, match="rng"):
            DataLoader(data, batch_size=8)
        with pytest.raises(ValueError, match="rng"):
            DataLoader(data, batch_size=8, shuffle=True, rng=None)

    def test_an_ordered_loader_builds_no_generator(self, tiny_spec):
        loader = DataLoader(generate_domain_split(tiny_spec, 0, "train"), batch_size=8, shuffle=False)
        assert loader._rng is None
        assert np.array_equal(np.concatenate([labels for _, labels in loader]), loader.dataset.labels)

    def test_invalid_batch_size(self, tiny_spec):
        with pytest.raises(ValueError):
            DataLoader(generate_domain_split(tiny_spec, 0, "train"), batch_size=0)
