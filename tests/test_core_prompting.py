"""Tests for RefFiL's prompt machinery: CDAP, prompt stores, clustering, DPCL, GPL."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, default_dtype, functional as F, no_grad
from repro.autograd.tape import Tape, tracing
from repro.core import (
    CDAPConfig,
    CDAPGenerator,
    DPCLConfig,
    GlobalPromptStore,
    LocalPromptCollector,
    cluster_prompt_groups,
    decayed_temperature,
    dpcl_loss,
    gpl_loss,
)
from repro.core.client import RefFiLClientTrainer
from repro.core.clustering import cluster_class_prompts
from repro.core.method import RefFiLConfig, RefFiLMethod
from repro.core.model import RefFiLModel
from repro.federated.increment import ClientGroup
from repro.models.backbone import PromptedBackbone

RNG = np.random.default_rng(21)


class TestCDAPGenerator:
    @pytest.fixture
    def generator(self):
        return CDAPGenerator(CDAPConfig(embed_dim=16, num_tokens=9, prompt_length=3, max_tasks=4, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CDAPConfig(prompt_length=0)
        with pytest.raises(ValueError):
            CDAPConfig(num_tokens=1)
        with pytest.raises(ValueError):
            CDAPConfig(max_tasks=0)

    def test_prompt_shape(self, generator):
        tokens = Tensor(RNG.standard_normal((5, 9, 16)))
        prompts = generator(tokens, task_id=1)
        assert prompts.shape == (5, 3, 16)

    def test_prompts_are_instance_conditioned(self, generator):
        tokens = Tensor(RNG.standard_normal((2, 9, 16)))
        prompts = generator(tokens, task_id=0).data
        assert not np.allclose(prompts[0], prompts[1])

    def test_task_id_changes_prompts(self, generator):
        tokens = Tensor(RNG.standard_normal((2, 9, 16)))
        a = generator(tokens, task_id=0).data
        b = generator(tokens, task_id=2).data
        assert not np.allclose(a, b)

    def test_task_free_path_ignores_task(self, generator):
        tokens = Tensor(RNG.standard_normal((2, 9, 16)))
        assert generator.generate_without_task(tokens).shape == (2, 3, 16)

    def test_input_validation(self, generator):
        with pytest.raises(ValueError):
            generator(Tensor(RNG.standard_normal((2, 5, 16))), task_id=0)
        with pytest.raises(ValueError):
            generator(Tensor(RNG.standard_normal((2, 9, 8))), task_id=0)
        with pytest.raises(IndexError):
            generator(Tensor(RNG.standard_normal((2, 9, 16))), task_id=10)
        with pytest.raises(ValueError):
            generator(Tensor(RNG.standard_normal((9, 16))), task_id=0)

    def test_gradients_flow_to_all_components(self, generator):
        tokens = Tensor(RNG.standard_normal((3, 9, 16)), requires_grad=True)
        generator(tokens, task_id=1).sum().backward()
        assert tokens.grad is not None
        assert generator.ccda.weight.grad is not None
        assert generator.film.weight.grad is not None
        assert generator.task_keys.weight.grad is not None


class TestLocalPromptCollector:
    def test_average_per_class(self):
        collector = LocalPromptCollector(embed_dim=4)
        prompts = Tensor(np.stack([np.full((2, 4), 1.0), np.full((2, 4), 3.0)]))
        collector.add_batch(prompts, np.array([0, 0]))
        group = collector.local_prompt_group()
        assert np.allclose(group[0], 2.0)
        assert list(group) == [0]
        assert len(collector) == 2

    def test_multiple_classes(self):
        collector = LocalPromptCollector(embed_dim=4)
        collector.add_batch(Tensor(RNG.standard_normal((6, 2, 4))), np.array([0, 1, 2, 0, 1, 2]))
        assert set(collector.local_prompt_group()) == {0, 1, 2}
        assert len(collector) == 6

    def test_validation(self):
        collector = LocalPromptCollector(embed_dim=4)
        with pytest.raises(ValueError):
            collector.add_batch(Tensor(RNG.standard_normal((2, 3, 5))), np.array([0, 1]))
        with pytest.raises(ValueError):
            collector.add_batch(Tensor(RNG.standard_normal((2, 3, 4))), np.array([0]))


class TestGlobalPromptStore:
    def test_replace_and_queries(self):
        store = GlobalPromptStore(num_classes=3, embed_dim=4)
        assert store.is_empty
        store.replace({0: np.ones((2, 4)), 1: np.zeros(4)})
        assert len(store) == 3
        assert store.class_prompts(0).shape == (2, 4)
        assert store.class_prompts(1).shape == (1, 4)
        assert store.class_prompts(2).shape == (0, 4)
        assert store.all_prompts().shape == (3, 4)
        assert store.prompts_excluding(0).shape == (1, 4)

    def test_averaged_prompt_matrix_covers_all_classes(self):
        store = GlobalPromptStore(num_classes=3, embed_dim=4)
        assert store.averaged_prompt_matrix() is None
        store.replace({0: np.full((2, 4), 2.0)})
        matrix = store.averaged_prompt_matrix()
        assert matrix.shape == (3, 4)
        assert np.allclose(matrix[0], 2.0)
        assert np.allclose(matrix[2], 2.0)  # falls back to overall mean

    def test_payload_roundtrip(self):
        store = GlobalPromptStore(num_classes=2, embed_dim=4)
        store.replace({1: RNG.standard_normal((3, 4))})
        payload = store.to_payload()
        rebuilt = GlobalPromptStore.from_payload(payload, num_classes=2, embed_dim=4)
        assert np.allclose(rebuilt.class_prompts(1), store.class_prompts(1))
        assert rebuilt.payload_bytes() == store.payload_bytes()

    def test_validation(self):
        store = GlobalPromptStore(num_classes=2, embed_dim=4)
        with pytest.raises(ValueError):
            store.replace({0: np.ones((2, 5))})
        with pytest.raises(KeyError):
            store.replace({7: np.ones((1, 4))})
        with pytest.raises(ValueError):
            GlobalPromptStore(num_classes=0, embed_dim=4)


class TestPromptClustering:
    def test_few_prompts_pass_through(self):
        vectors = RNG.standard_normal((2, 6))
        assert np.allclose(cluster_class_prompts(vectors), vectors)

    def test_domain_separated_prompts_yield_multiple_representatives(self):
        domain_a = np.tile(np.array([5.0, 0.0, 0.0, 0.0]), (6, 1)) + RNG.normal(0, 0.05, (6, 4))
        domain_b = np.tile(np.array([0.0, 5.0, 0.0, 0.0]), (6, 1)) + RNG.normal(0, 0.05, (6, 4))
        representatives = cluster_class_prompts(np.vstack([domain_a, domain_b]))
        assert 2 <= representatives.shape[0] <= 12

    def test_max_representatives_cap(self):
        vectors = RNG.standard_normal((30, 4))
        assert cluster_class_prompts(vectors, max_representatives=3).shape[0] <= 3

    def test_cluster_prompt_groups_merges_clients_and_existing(self):
        groups = [{0: np.ones(4), 1: np.zeros(4)}, {0: np.full(4, 2.0)}]
        existing = {1: np.full((1, 4), 5.0)}
        clustered = cluster_prompt_groups(groups, existing=existing)
        assert set(clustered) == {0, 1}
        assert clustered[0].shape[1] == 4
        assert clustered[1].shape[0] >= 1


class TestTemperatureDecay:
    def test_paper_equation_values(self):
        config = DPCLConfig(tau=0.9, tau_min=0.3, gamma=0.1, beta=0.05)
        # tau' = tau * (1 - (gamma + (t-1) beta)) until the floor is hit.
        assert decayed_temperature(config, 1) == pytest.approx(0.9 * (1 - 0.1))
        assert decayed_temperature(config, 3) == pytest.approx(0.9 * (1 - 0.2))
        assert decayed_temperature(config, 100) == pytest.approx(0.3)

    def test_table8_default_row(self):
        config = DPCLConfig(tau=0.9, tau_min=0.3, gamma=0.1, beta=0.05)
        assert decayed_temperature(config, 3) == pytest.approx(0.72)

    def test_decay_disabled(self):
        config = DPCLConfig(tau=0.9, tau_min=0.3, gamma=0.1, beta=0.05, enable_decay=False)
        assert decayed_temperature(config, 5) == pytest.approx(0.9)

    def test_monotone_non_increasing_in_task(self):
        config = DPCLConfig()
        temps = [decayed_temperature(config, t) for t in range(1, 10)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            DPCLConfig(tau=0.2, tau_min=0.3)
        with pytest.raises(ValueError):
            DPCLConfig(gamma=1.5)
        with pytest.raises(ValueError):
            decayed_temperature(DPCLConfig(), 0)

    @given(st.integers(1, 20), st.floats(0.4, 0.95), st.floats(0.01, 0.2))
    @settings(max_examples=30, deadline=None)
    def test_temperature_stays_in_valid_range(self, task, tau, beta):
        config = DPCLConfig(tau=tau, tau_min=0.3 if tau >= 0.3 else tau, gamma=0.1, beta=beta)
        temp = decayed_temperature(config, task)
        assert config.tau_min - 1e-12 <= temp <= config.tau + 1e-12


class TestDPCLLoss:
    def _store(self):
        store = GlobalPromptStore(num_classes=2, embed_dim=4)
        store.replace(
            {
                0: np.stack([np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])]),
                1: np.array([[0, 1.0, 0, 0]]),
            }
        )
        return store

    def test_empty_store_returns_none(self):
        store = GlobalPromptStore(num_classes=2, embed_dim=4)
        prompts = Tensor(RNG.standard_normal((3, 2, 4)))
        assert dpcl_loss(prompts, np.array([0, 1, 0]), store, ClientGroup.NEW, 0.5) is None

    def test_aligned_prompts_give_lower_loss_than_misaligned(self):
        store = self._store()
        aligned = Tensor(np.tile(np.array([1.0, 0, 0, 0]), (2, 2, 1)))
        misaligned = Tensor(np.tile(np.array([0.0, 1.0, 0, 0]), (2, 2, 1)))
        labels = np.array([0, 0])
        low = dpcl_loss(aligned, labels, store, ClientGroup.NEW, 0.5)
        high = dpcl_loss(misaligned, labels, store, ClientGroup.NEW, 0.5)
        assert float(low.data) < float(high.data)

    def test_in_between_uses_two_positives(self):
        store = self._store()
        prompts = Tensor(RNG.standard_normal((2, 2, 4)))
        labels = np.array([0, 0])
        loss_new = dpcl_loss(prompts, labels, store, ClientGroup.NEW, 0.5)
        loss_between = dpcl_loss(prompts, labels, store, ClientGroup.IN_BETWEEN, 0.5)
        # With two positives the numerator can only grow, so the loss cannot be larger.
        assert float(loss_between.data) <= float(loss_new.data) + 1e-9

    def test_gradient_flows_to_prompts(self):
        store = self._store()
        prompts = Tensor(RNG.standard_normal((3, 2, 4)), requires_grad=True)
        loss = dpcl_loss(prompts, np.array([0, 1, 0]), store, ClientGroup.NEW, 0.5)
        loss.backward()
        assert prompts.grad is not None

    def test_temperature_validation(self):
        store = self._store()
        prompts = Tensor(RNG.standard_normal((1, 2, 4)))
        with pytest.raises(ValueError):
            dpcl_loss(prompts, np.array([0]), store, ClientGroup.NEW, 0.0)

    def test_unknown_class_samples_are_skipped(self):
        store = GlobalPromptStore(num_classes=3, embed_dim=4)
        store.replace({0: np.ones((1, 4))})
        prompts = Tensor(RNG.standard_normal((2, 2, 4)))
        # Class 2 has no global prompts and class 0 has no negatives -> loss is None.
        assert dpcl_loss(prompts, np.array([2, 2]), store, ClientGroup.NEW, 0.5) is None


def _dpcl_per_sample_reference(local_prompts, labels, store, group, temperature):
    """Eq. 9 written one sample at a time: the loop ``dpcl_loss`` replaced,
    kept as the reference its batched form is compared against."""
    pooled = local_prompts.mean(axis=1)
    num_positives = 2 if group is ClientGroup.IN_BETWEEN else 1
    losses = []
    for index, label in enumerate(np.asarray(labels, dtype=np.int64)):
        class_prompts = store.class_prompts(int(label))
        if class_prompts.shape[0] == 0:
            continue
        anchor = pooled[index]
        unit = class_prompts / np.linalg.norm(class_prompts, axis=1, keepdims=True)
        chosen = np.argsort(-(unit @ anchor.data))[:num_positives]
        positives = class_prompts[chosen]
        negatives = np.concatenate(
            [np.delete(class_prompts, chosen, axis=0), store.prompts_excluding(int(label))]
        )
        if negatives.shape[0] == 0:
            continue

        def exp_similarities(candidates):
            rows = anchor.reshape(1, -1).broadcast_to(candidates.shape)
            return (F.cosine_similarity(rows, Tensor(candidates)) * (1.0 / temperature)).exp().sum()

        pos, neg = exp_similarities(positives), exp_similarities(negatives)
        losses.append(-(pos / (pos + neg)).log())
    if not losses:
        return None
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss
    return total * (1.0 / len(losses))


class TestDPCLBatchedEquivalence:
    """The ``(batch, K)`` similarity-matrix loss against the per-sample loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_classes=st.integers(1, 5),
        # Prompts per class: zeros give empty classes and labels absent from
        # the store; a lone 1 gives a single-class store with no negatives and
        # an IN_BETWEEN anchor whose class has one prompt where two are wanted.
        counts=st.lists(st.integers(0, 3), min_size=5, max_size=5),
        batch=st.integers(1, 9),
        group=st.sampled_from(list(ClientGroup)),
        temperature=st.sampled_from([0.3, 0.5, 0.9]),
    )
    def test_loss_and_gradient_match_reference(
        self, seed, num_classes, counts, batch, group, temperature
    ):
        rng = np.random.default_rng(seed)
        store = GlobalPromptStore(num_classes=num_classes, embed_dim=6)
        store.replace(
            {
                label: rng.standard_normal((count, 6))
                for label, count in enumerate(counts[:num_classes])
                if count
            }
        )
        labels = rng.integers(0, num_classes, batch)
        data = rng.standard_normal((batch, 3, 6))
        batched_in = Tensor(data, requires_grad=True)
        reference_in = Tensor(data, requires_grad=True)
        batched = dpcl_loss(batched_in, labels, store, group, temperature)
        reference = _dpcl_per_sample_reference(reference_in, labels, store, group, temperature)
        assert (batched is None) == (reference is None)
        if batched is None:
            return
        assert float(batched.data) == pytest.approx(float(reference.data), abs=1e-12)
        batched.backward()
        reference.backward()
        np.testing.assert_allclose(batched_in.grad, reference_in.grad, atol=1e-12, rtol=0)

    def test_skipped_samples_receive_exactly_zero_gradient(self):
        store = GlobalPromptStore(num_classes=3, embed_dim=4)
        store.replace({0: RNG.standard_normal((2, 4)), 1: RNG.standard_normal((1, 4))})
        prompts = Tensor(RNG.standard_normal((3, 2, 4)), requires_grad=True)
        dpcl_loss(prompts, np.array([0, 2, 1]), store, ClientGroup.NEW, 0.5).backward()
        assert np.all(prompts.grad[1] == 0.0)  # class 2 is not in the store
        assert np.any(prompts.grad[0] != 0.0) and np.any(prompts.grad[2] != 0.0)

    def test_step_op_count_does_not_grow_with_batch(self, tiny_backbone_config):
        model = RefFiLModel(tiny_backbone_config, prompt_length=3, max_tasks=4)
        store = GlobalPromptStore(tiny_backbone_config.num_classes, tiny_backbone_config.embed_dim)
        store.replace(
            {
                label: RNG.standard_normal((2, tiny_backbone_config.embed_dim))
                for label in range(tiny_backbone_config.num_classes)
            }
        )
        trainer = RefFiLClientTrainer(DPCLConfig())
        client = SimpleNamespace(task_id=0, group=ClientGroup.IN_BETWEEN)
        size = tiny_backbone_config.image_size
        records = []
        for batch in (4, 16):
            images = Tensor(RNG.standard_normal((batch, 3, size, size)))
            labels = RNG.integers(0, tiny_backbone_config.num_classes, batch)
            tape = Tape()
            with tracing(tape):
                _, breakdown = trainer._batch_loss(
                    model, images, labels, client, store.averaged_prompt_matrix(), store, 0.5, None, None
                )
            assert breakdown.dpcl > 0.0
            records.append(len(tape.records))
        assert records[0] == records[1]
        # One dispatched op per transformer layer: a change that re-composes
        # layer_norm / gelu / softmax / log_softmax / linear from elementary
        # ops (~299 records), or attention from its head split, scores,
        # softmax and merge (153), fails here, not in a benchmark.
        assert records[0] <= 140, records


class TestGPLLoss:
    def test_none_without_global_prompts(self, tiny_backbone_config):
        backbone = PromptedBackbone(tiny_backbone_config)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        patches = backbone.patch_tokens(images)
        assert gpl_loss(backbone, patches, np.array([0, 1]), None) is None

    def test_scalar_loss_with_prompts(self, tiny_backbone_config):
        backbone = PromptedBackbone(tiny_backbone_config)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        patches = backbone.patch_tokens(images)
        prompts = RNG.standard_normal((tiny_backbone_config.num_classes, tiny_backbone_config.embed_dim))
        loss = gpl_loss(backbone, patches, np.array([0, 1]), prompts)
        assert loss.data.size == 1
        loss.backward()
        assert backbone.classifier.head.weight.grad is not None


class TestRefFiLModel:
    def test_composite_state_dict_contains_both_parts(self, tiny_backbone_config):
        model = RefFiLModel(tiny_backbone_config, prompt_length=3, max_tasks=4)
        keys = model.state_dict().keys()
        assert any(key.startswith("backbone.") for key in keys)
        assert any(key.startswith("cdap.") for key in keys)

    def test_generate_prompts_shapes(self, tiny_backbone_config):
        model = RefFiLModel(tiny_backbone_config, prompt_length=3, max_tasks=4)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        assert model.generate_prompts(images, task_id=1).shape == (2, 3, tiny_backbone_config.embed_dim)
        assert model.generate_prompts(images, task_id=None).shape == (2, 3, tiny_backbone_config.embed_dim)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predict_logits_runs_the_feature_extractor_once(self, tiny_backbone_config, dtype):
        with default_dtype(dtype):
            method = RefFiLMethod(RefFiLConfig(backbone=tiny_backbone_config))
            model = method.build_model()
            model.eval()
            images = Tensor(RNG.standard_normal((3, 3, 16, 16)))
            extractor = model.backbone.feature_extractor
            calls = []
            inner = extractor.forward
            extractor.forward = lambda x: calls.append(1) or inner(x)
            with no_grad():
                logits = method.predict_logits(model, images)
                entered = len(calls)
                # The composition the single pass replaced: prompts from one
                # ResNet forward, classification through a second.
                two_pass = model.backbone(images, model.generate_prompts(images, task_id=None))
        assert entered == 1
        assert logits.data.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(logits.data, two_pass.data)

    def test_forward_with_and_without_prompts(self, tiny_backbone_config):
        model = RefFiLModel(tiny_backbone_config, prompt_length=3, max_tasks=4)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        plain = model(images)
        prompted = model(images, model.generate_prompts(images, task_id=0))
        assert plain.shape == prompted.shape == (2, tiny_backbone_config.num_classes)
