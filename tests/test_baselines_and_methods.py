"""Tests for the baseline methods, the RefFiL method object and the method registry."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.autograd.tensor import default_dtype
from repro.baselines import (
    BaselineConfig,
    FedDualPromptMethod,
    FedEWCMethod,
    FedL2PMethod,
    FedLwFMethod,
    FinetuneMethod,
    PromptPool,
    PromptPoolConfig,
    available_methods,
    build_method,
)
from repro.baselines.prompt_pool import SinglePrompt
from repro.core import GlobalPromptStore, RefFiLConfig, RefFiLMethod
from repro.core.dpcl import DPCLConfig
from repro.datasets.registry import build_dataset
from repro.datasets.synthetic import generate_domain_split
from repro.experiments.config import ExperimentScale, scaled_config
from repro.federated.client import ClientHandle, LocalTrainingConfig, run_local_sgd
from repro.federated.communication import ClientUpdate
from repro.federated.increment import ClientGroup
from repro.federated.server import FederatedServer

RNG = np.random.default_rng(31)


def _client(tiny_spec, task_id=0, group=ClientGroup.NEW, epochs=1, final_round=True):
    data = generate_domain_split(tiny_spec, min(task_id, tiny_spec.num_domains - 1), "train")
    return ClientHandle(
        client_id=0,
        task_id=task_id,
        group=group,
        dataset=data,
        rng=np.random.default_rng(0),
        training=LocalTrainingConfig(local_epochs=epochs, batch_size=8, learning_rate=0.05),
        metadata={"round_index": 0.0 if not final_round else 0.0, "rounds_per_task": 1.0},
    )


class TestPromptPool:
    def test_selection_shapes(self):
        pool = PromptPool(PromptPoolConfig(pool_size=5, prompt_length=2, embed_dim=8, top_k=2))
        query = Tensor(RNG.standard_normal((3, 8)))
        tokens, pull, indices = pool.select(query)
        assert tokens.shape == (3, 4, 8)
        assert pull.data.size == 1
        assert indices.shape == (3, 2)
        assert indices.min() >= 0 and indices.max() < 5

    def test_query_validation(self):
        pool = PromptPool(PromptPoolConfig(pool_size=3, prompt_length=1, embed_dim=8, top_k=1))
        with pytest.raises(ValueError):
            pool.select(Tensor(RNG.standard_normal((3, 4))))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PromptPoolConfig(pool_size=0)
        with pytest.raises(ValueError):
            PromptPoolConfig(pool_size=2, top_k=5)

    def test_similar_queries_pick_same_prompt(self):
        pool = PromptPool(PromptPoolConfig(pool_size=4, prompt_length=1, embed_dim=6, top_k=1))
        base = RNG.standard_normal(6)
        queries = Tensor(np.stack([base, base + 0.001]))
        _, _, indices = pool.select(queries)
        assert indices[0, 0] == indices[1, 0]

    def test_single_prompt_broadcast(self):
        single = SinglePrompt(prompt_length=3, embed_dim=8)
        assert single.tokens(5).shape == (5, 3, 8)


class TestBaselineLocalUpdates:
    @pytest.fixture
    def backbone_config(self, tiny_backbone_config):
        return tiny_backbone_config

    def _run_one_update(self, method, tiny_spec):
        model = method.build_model()
        server = FederatedServer(model)
        client = _client(tiny_spec)
        update = method.local_update(model, server.global_state, server.broadcast_payload, client)
        return model, server, update

    def test_finetune_update_produces_valid_state(self, backbone_config, tiny_spec):
        method = FinetuneMethod(BaselineConfig(backbone=backbone_config))
        model, server, update = self._run_one_update(method, tiny_spec)
        assert update.num_samples == tiny_spec.train_per_domain
        assert update.train_loss > 0
        assert set(update.state_dict) == set(server.global_state)
        method.aggregate(server, [update])
        assert server.round_counter == 1

    def test_finetune_predict_logits_shape(self, backbone_config, tiny_spec):
        method = FinetuneMethod(BaselineConfig(backbone=backbone_config))
        model = method.build_model()
        logits = method.predict_logits(model, Tensor(RNG.standard_normal((2, 3, 16, 16))))
        assert logits.shape == (2, backbone_config.num_classes)

    def test_fedlwf_teacher_lifecycle(self, backbone_config, tiny_spec):
        method = FedLwFMethod(BaselineConfig(backbone=backbone_config), distillation_weight=0.5)
        model = method.build_model()
        server = FederatedServer(model)
        assert not method.has_teacher
        method.on_task_start(0, server)
        assert not method.has_teacher  # no teacher for the first task
        method.on_task_start(1, server)
        assert method.has_teacher
        client = _client(tiny_spec, task_id=1)
        update = method.local_update(model, server.global_state, {}, client)
        assert update.train_loss > 0

    def test_fedlwf_validation(self, backbone_config):
        with pytest.raises(ValueError):
            FedLwFMethod(BaselineConfig(backbone=backbone_config), distillation_weight=-1.0)

    def test_fedewc_fisher_and_penalty(self, backbone_config, tiny_spec):
        method = FedEWCMethod(BaselineConfig(backbone=backbone_config), constraint=10.0, fisher_batches=1)
        model = method.build_model()
        server = FederatedServer(model)
        client = _client(tiny_spec)
        update = method.local_update(model, server.global_state, {}, client)
        assert "fisher" in update.payload
        assert all(np.all(v >= 0) for v in update.payload["fisher"].values())
        method.aggregate(server, [update])
        # The penalty is live: away from its anchor the loss exceeds plain CE.
        images, labels = next(iter(client.loader()))
        for param in model.parameters():
            if param.requires_grad:
                param.data += 0.1
        plain = float(F.cross_entropy(model(images), labels).data)
        assert float(method.batch_loss(model, images, labels, client).data) > plain
        # Subsequent local updates should include the (finite) penalty without crashing.
        second = method.local_update(model, server.global_state, {}, _client(tiny_spec, task_id=1))
        assert np.isfinite(second.train_loss)

    def test_fedl2p_pool_variant_names(self, backbone_config):
        plain = FedL2PMethod(BaselineConfig(backbone=backbone_config), use_pool=False)
        pooled = FedL2PMethod(BaselineConfig(backbone=backbone_config), use_pool=True)
        assert plain.name == "FedL2P" and pooled.name == "FedL2P†"
        assert plain.build_model().pool is None
        assert pooled.build_model().pool is not None

    def test_fedl2p_local_update_and_predict(self, backbone_config, tiny_spec):
        method = FedL2PMethod(BaselineConfig(backbone=backbone_config), use_pool=True)
        model, server, update = self._run_one_update(method, tiny_spec)
        assert update.train_loss > 0
        logits = method.predict_logits(model, Tensor(RNG.standard_normal((2, 3, 16, 16))))
        assert logits.shape == (2, backbone_config.num_classes)

    def test_feddualprompt_task_and_inference_paths(self, backbone_config, tiny_spec):
        method = FedDualPromptMethod(
            BaselineConfig(backbone=backbone_config), num_tasks=3, use_expert_bank=True
        )
        model, server, update = self._run_one_update(method, tiny_spec)
        assert update.train_loss > 0
        logits = method.predict_logits(model, Tensor(RNG.standard_normal((2, 3, 16, 16))))
        assert logits.shape == (2, backbone_config.num_classes)

    def test_feddualprompt_without_bank(self, backbone_config, tiny_spec):
        method = FedDualPromptMethod(
            BaselineConfig(backbone=backbone_config), num_tasks=3, use_expert_bank=False
        )
        model = method.build_model()
        assert model.expert_prompts is None and model.shared_expert is not None
        assert method.name == "FedDualPrompt"


class TestRefFiLMethod:
    def test_local_update_traced_peak_stays_under_bound(self):
        """A float32 tiny-scale local update's traced peak, after one warm-up
        update: 10.98 MB while backward kept every op context until its walk
        ended, 9.33 MB once each node is freed as the walk passes it, 8.80 MB
        while each ResNet layer kept its conv, batch-norm and ReLU outputs
        alive as three arrays, 7.25 MB once the layer is one op that
        normalises the conv's output in place."""
        config = scaled_config("office_caltech", ExperimentScale.TINY, seed=0)
        with default_dtype(np.float32):
            dataset = build_dataset("office_caltech", spec_override=config.spec).train(0)
            method = build_method("refil", config.backbone, num_tasks=config.num_tasks)
            model = method.build_model()
            server = FederatedServer(model)
            method.on_task_start(0, server)

            def local_update():
                client = ClientHandle(
                    client_id=0,
                    task_id=0,
                    group=ClientGroup.NEW,
                    dataset=dataset,
                    rng=np.random.default_rng(0),
                    training=config.federated.local,
                )
                model.load_state_dict(server.global_state)
                method.local_update(model, server.global_state, server.broadcast_payload, client)

            local_update()
            tracemalloc.start()
            try:
                local_update()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 8.0e6, f"traced peak {peak / 1e6:.2f} MB"

    def test_dpcl_requires_prompt_machinery(self, tiny_backbone_config):
        with pytest.raises(ValueError):
            RefFiLMethod(
                RefFiLConfig(
                    backbone=tiny_backbone_config, use_cdap=False, use_gpl=False, use_dpcl=True
                )
            )

    def test_name_reflects_ablation(self, tiny_backbone_config):
        full = RefFiLMethod(RefFiLConfig(backbone=tiny_backbone_config))
        assert full.name == "RefFiL"
        partial = RefFiLMethod(
            RefFiLConfig(backbone=tiny_backbone_config, use_cdap=True, use_gpl=False, use_dpcl=False)
        )
        assert "CDAP" in partial.name

    def test_local_update_uploads_prompt_groups(self, tiny_backbone_config, tiny_spec):
        method = RefFiLMethod(RefFiLConfig(backbone=tiny_backbone_config, prompt_length=3, max_tasks=4))
        model = method.build_model()
        server = FederatedServer(model)
        client = _client(tiny_spec)
        update = method.local_update(model, server.global_state, server.broadcast_payload, client)
        assert set(update.payload) == {"prompt_groups"}
        groups = update.payload["prompt_groups"]
        assert set(groups) == {"labels", "vectors"}
        labels, vectors = groups["labels"], groups["vectors"]
        assert labels.dtype == np.int64 and labels.ndim == 1 and labels.size > 0
        assert len(set(labels.tolist())) == labels.size
        assert vectors.shape == (labels.size, tiny_backbone_config.embed_dim)

    def test_local_prompt_group_comes_from_the_final_epoch_only(
        self, tiny_backbone_config, tiny_spec, monkeypatch
    ):
        """Three epochs over the client's data collect each sample's prompt
        once, from the final epoch, when the generator has trained longest."""
        import repro.core.client as reffil_client

        collectors = []

        class RecordingCollector(reffil_client.LocalPromptCollector):
            def __init__(self, embed_dim):
                super().__init__(embed_dim)
                collectors.append(self)

        monkeypatch.setattr(reffil_client, "LocalPromptCollector", RecordingCollector)
        method = RefFiLMethod(RefFiLConfig(backbone=tiny_backbone_config, prompt_length=3, max_tasks=4))
        model = method.build_model()
        server = FederatedServer(model)
        client = _client(tiny_spec, epochs=3)
        update = method.local_update(model, server.global_state, server.broadcast_payload, client)
        (collector,) = collectors
        assert len(collector) == client.num_samples
        assert update.payload["prompt_groups"]["labels"].size == len(collector.local_prompt_group())

    def test_loss_breakdown_is_the_mean_over_every_batch_of_every_epoch(
        self, tiny_backbone_config, tiny_spec, monkeypatch
    ):
        import repro.core.client as reffil_client

        means = []

        def recording_sgd(*args, **kwargs):
            means.append(run_local_sgd(*args, **kwargs))
            return means[-1]

        monkeypatch.setattr(reffil_client, "run_local_sgd", recording_sgd)
        method = RefFiLMethod(RefFiLConfig(backbone=tiny_backbone_config, prompt_length=3, max_tasks=4))
        model = method.build_model()
        server = FederatedServer(model)
        update = method.local_update(model, server.global_state, {}, _client(tiny_spec, epochs=2))
        assert update.train_loss == pytest.approx(means[0], rel=1e-6)
        assert update.metrics["loss_total"] == update.train_loss
        assert update.metrics["loss_ce"] > 0.0

    def test_aggregate_populates_store_and_broadcast(self, tiny_backbone_config, tiny_spec):
        method = RefFiLMethod(RefFiLConfig(backbone=tiny_backbone_config, prompt_length=3, max_tasks=4))
        model = method.build_model()
        server = FederatedServer(model)
        update = method.local_update(model, server.global_state, {}, _client(tiny_spec))
        method.aggregate(server, [update])
        assert not method.store.is_empty
        assert set(server.broadcast_payload) == {"labels", "counts", "vectors"}
        assert server.broadcast_payload["counts"].sum() == len(method.store)
        # A second local update must be able to consume the broadcast payload.
        second = method.local_update(model, server.global_state, server.broadcast_payload, _client(tiny_spec, task_id=1))
        assert np.isfinite(second.train_loss)

    def test_predict_logits_shapes(self, tiny_backbone_config):
        method = RefFiLMethod(RefFiLConfig(backbone=tiny_backbone_config, prompt_length=3, max_tasks=4))
        model = method.build_model()
        logits = method.predict_logits(model, Tensor(RNG.standard_normal((2, 3, 16, 16))))
        assert logits.shape == (2, tiny_backbone_config.num_classes)

    def test_ablated_gpl_only_predicts_without_cdap(self, tiny_backbone_config, tiny_spec):
        method = RefFiLMethod(
            RefFiLConfig(backbone=tiny_backbone_config, use_cdap=False, use_gpl=True, use_dpcl=False)
        )
        model = method.build_model()
        server = FederatedServer(model)
        update = method.local_update(model, server.global_state, {}, _client(tiny_spec))
        method.aggregate(server, [update])
        logits = method.predict_logits(model, Tensor(RNG.standard_normal((2, 3, 16, 16))))
        assert logits.shape == (2, tiny_backbone_config.num_classes)

    @pytest.mark.parametrize(
        "labels, rows",
        [([0, 1, 2], 2), ([0, 1], 3), ([1, 1], 2)],
        ids=["fewer-rows", "more-rows", "repeated-label"],
    )
    def test_malformed_upload_raises(self, tiny_backbone_config, labels, rows):
        """Wire arrays whose labels and rows disagree are refused, not truncated."""
        method = RefFiLMethod(RefFiLConfig(backbone=tiny_backbone_config))
        server = FederatedServer(method.build_model())
        groups = {
            "labels": np.asarray(labels, dtype=np.int64),
            "vectors": np.zeros((rows, tiny_backbone_config.embed_dim)),
        }
        update = ClientUpdate(0, server.global_state, 4, payload={"prompt_groups": groups})
        with pytest.raises(ValueError, match="prompt payload"):
            method.aggregate(server, [update])
        assert method.store.is_empty and not server.broadcast_payload
        assert server.round_counter == 0

    @pytest.mark.parametrize(
        "labels, counts, rows",
        [([0, 1], [2, 1], 2), ([0, 1], [1, 1], 3), ([0, 1], [2], 2), ([0, 1], [3, -1], 2), ([1, 1], [1, 1], 2)],
        ids=["fewer-rows", "more-rows", "short-counts", "negative-count", "repeated-label"],
    )
    def test_malformed_broadcast_raises(self, tiny_backbone_config, labels, counts, rows):
        embed_dim = tiny_backbone_config.embed_dim
        payload = {
            "labels": np.asarray(labels, dtype=np.int64),
            "counts": np.asarray(counts, dtype=np.int64),
            "vectors": np.zeros((rows, embed_dim)),
        }
        with pytest.raises(ValueError, match="prompt payload"):
            GlobalPromptStore.from_payload(payload, num_classes=4, embed_dim=embed_dim)


class TestRegistry:
    def test_all_names_buildable(self, tiny_backbone_config):
        for name in available_methods():
            method = build_method(name, tiny_backbone_config, num_tasks=3)
            assert method.build_model() is not None

    def test_unknown_name_raises(self, tiny_backbone_config):
        with pytest.raises(KeyError):
            build_method("fedprox", tiny_backbone_config, num_tasks=2)

    def test_dpcl_override_reaches_refil(self, tiny_backbone_config):
        dpcl = DPCLConfig(tau=0.5, tau_min=0.2, gamma=0.15, beta=0.1)
        method = build_method("refil", tiny_backbone_config, num_tasks=2, dpcl=dpcl)
        assert method.config.dpcl.tau == pytest.approx(0.5)

    def test_registry_covers_paper_rows(self):
        names = available_methods()
        for required in ("finetune", "fedlwf", "fedewc", "fedl2p", "fedl2p_pool",
                         "feddualprompt", "feddualprompt_pool", "refil"):
            assert required in names
