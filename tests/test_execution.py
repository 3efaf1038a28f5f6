"""Tests of the round execution engine: executor parity, broadcast handle, dtype path."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import sys
from multiprocessing.connection import Connection

import numpy as np
import pytest
from dataclasses import replace

from repro.autograd import functional
from repro.autograd import tensor as tensor_module
from repro.autograd.tensor import (
    apply_op,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.baselines.base import BaselineConfig
from repro.baselines.finetune import FinetuneMethod
from repro.baselines.registry import build_method
from repro.continual import DomainIncrementalScenario, count_correct
from repro.datasets import SyntheticDomainDataset
from repro.federated import (
    FederatedConfig,
    FederatedDomainIncrementalSimulation,
    ParallelExecutor,
    SerialExecutor,
    WorkerDiedError,
    batch_aligned_slices,
    build_executor,
)
from repro.federated import execution
from repro.federated.client import ClientHandle, LocalTrainingConfig
from repro.federated.execution import EvalJob
from repro.federated.increment import ClientGroup
from repro.federated.server import BroadcastHandle, FederatedServer
from repro.nn.optim import SGD


def _run_simulation(tiny_spec, tiny_backbone_config, config, method_name="refil"):
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
    method = build_method(method_name, tiny_backbone_config, num_tasks=scenario.num_tasks)
    return FederatedDomainIncrementalSimulation(scenario, method, config).run()


class TestExecutorParity:
    def test_serial_and_parallel_runs_are_identical(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        serial = _run_simulation(tiny_spec, tiny_backbone_config, tiny_federated_config)
        parallel = _run_simulation(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, executor="parallel", num_workers=2),
        )
        np.testing.assert_array_equal(serial.metrics.matrix, parallel.metrics.matrix)
        assert serial.round_losses == parallel.round_losses
        assert serial.round_loss_components == parallel.round_loss_components

    def test_one_and_many_workers_are_identical(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        one = _run_simulation(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, executor="parallel", num_workers=1),
        )
        two = _run_simulation(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, executor="parallel", num_workers=2),
        )
        np.testing.assert_array_equal(one.metrics.matrix, two.metrics.matrix)
        assert one.round_losses == two.round_losses

    def test_parity_with_stateful_static_prompt_ablation(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """refil_gpl disables CDAP, so clients train persistent static prompts;
        the parallel executor must round-trip them through export/import."""
        config = replace(tiny_federated_config, rounds_per_task=2)
        serial = _run_simulation(tiny_spec, tiny_backbone_config, config, "refil_gpl")
        parallel = _run_simulation(
            tiny_spec,
            tiny_backbone_config,
            replace(config, executor="parallel", num_workers=2),
            "refil_gpl",
        )
        np.testing.assert_array_equal(serial.metrics.matrix, parallel.metrics.matrix)
        assert serial.round_losses == parallel.round_losses

    def test_build_executor_validation(self):
        assert isinstance(build_executor("serial"), SerialExecutor)
        assert isinstance(build_executor("parallel", 2), ParallelExecutor)
        with pytest.raises(ValueError):
            build_executor("threads")
        with pytest.raises(ValueError):
            FederatedConfig(executor="bogus")
        with pytest.raises(ValueError):
            FederatedConfig(dtype="int32")


class TestBroadcastHandle:
    def _server(self, tiny_backbone_config):
        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        return FederatedServer(method.build_model())

    def test_view_shares_memory_and_refuses_writes(self, tiny_backbone_config):
        server = self._server(tiny_backbone_config)
        handle = server.broadcast_view()
        for key, view in handle.state.items():
            assert np.shares_memory(view, server.global_state[key])
            assert not view.flags.writeable
        with pytest.raises(ValueError):
            next(iter(handle.state.values()))[...] = 0.0

    def test_handle_and_serialization_are_cached_per_round(self, tiny_backbone_config):
        server = self._server(tiny_backbone_config)
        handle = server.broadcast_view()
        assert server.broadcast_view() is handle
        assert handle.serialized() is handle.serialized()
        server.broadcast_payload = {"x": np.zeros(2)}
        assert server.broadcast_view() is not handle


class TestReplicaCache:
    def test_replica_key_distinguishes_compute_dtype(self, tiny_backbone_config):
        """Regression: a long-lived worker pool must not reuse a float64
        replica (stale-precision buffers) after set_default_dtype("float32")
        — the compute dtype is part of the cache key."""
        from repro.federated.execution import _replica_key

        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        state = method.build_model().state_dict()
        with default_dtype("float64"):
            key64 = _replica_key(method, state)
        with default_dtype("float32"):
            key32 = _replica_key(method, state)
        assert key64 != key32
        assert "float64" in key64 and "float32" in key32

    def test_replica_for_builds_one_replica_per_dtype(self, tiny_backbone_config):
        from repro.federated.execution import _WORKER_REPLICAS, _replica_for

        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        state = method.build_model().state_dict()
        before = dict(_WORKER_REPLICAS)
        try:
            _WORKER_REPLICAS.clear()
            with default_dtype("float64"):
                wide = _replica_for(method, state)
                assert _replica_for(method, state) is wide  # cached
            with default_dtype("float32"):
                narrow = _replica_for(method, state)
            assert narrow is not wide
            assert len(_WORKER_REPLICAS) == 2
        finally:
            _WORKER_REPLICAS.clear()
            _WORKER_REPLICAS.update(before)


def _handle(dataset, task_id=0, client_id=0, round_index=0):
    return ClientHandle(
        client_id=client_id,
        task_id=task_id,
        group=ClientGroup.NEW,
        dataset=dataset,
        rng=np.random.default_rng(100 * task_id + 10 * round_index + client_id),
        training=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
    )


#: One work unit per plane over the same dataset: what the pool ships light
#: (``lighten()``) next to its ``shard_ref()``.
_WORK_UNITS = {
    "train": lambda dataset, task_id=0: _handle(dataset, task_id),
    "eval": lambda dataset, task_id=0: EvalJob(
        task_id=task_id, slice_index=0, dataset=dataset, batch_size=4
    ),
}


@pytest.fixture
def worker_shards():
    """The worker-side cache, emptied for an in-process test and restored after."""
    from repro.federated.execution import _WORKER_SHARDS

    before = dict(_WORKER_SHARDS)
    _WORKER_SHARDS.clear()
    yield _WORKER_SHARDS
    _WORKER_SHARDS.clear()
    _WORKER_SHARDS.update(before)


class TestWorkerShardCache:
    """The worker-side cache contract, identical for both planes (run in-process)."""

    @pytest.mark.parametrize("plane", ["train", "eval"])
    def test_install_resolve_replace_miss_corruption(self, plane, tiny_spec, worker_shards):
        from repro.federated.execution import _install_shards, _resolve_chunk

        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "test")
        unit = _WORK_UNITS[plane](dataset)
        ref = unit.shard_ref()
        assert ref.plane == plane and ref.num_samples == len(dataset)
        light = unit.lighten()
        assert light.dataset is None

        _install_shards({ref: pickle.dumps(dataset)})
        [(index, resolved)] = _resolve_chunk([(4, ref, light)])
        assert index == 4 and type(resolved) is type(unit)
        assert np.array_equal(resolved.dataset.labels, dataset.labels)

        # Same identity, new content fingerprint (a dtype switch): the stale
        # entry is replaced, not accumulated — the cache stays bounded by one
        # copy per identity — and the stale reference no longer resolves.
        narrow = dataset.astype(np.float32)
        new_ref = replace(unit, dataset=narrow).shard_ref()
        assert new_ref.identity == ref.identity and new_ref.fingerprint != ref.fingerprint
        _install_shards({new_ref: pickle.dumps(narrow)})
        assert set(worker_shards) == {ref.identity}
        [(_, rebound)] = _resolve_chunk([(0, new_ref, light)])
        assert rebound.dataset.images.dtype == np.float32
        with pytest.raises(RuntimeError, match="cache miss"):
            _resolve_chunk([(0, ref, light)])

        # A cached dataset whose length disagrees with the reference.
        with pytest.raises(RuntimeError, match="cache corruption"):
            _resolve_chunk([(0, replace(new_ref, num_samples=len(narrow) + 1), light)])

        # Nothing installed for this identity at all.
        worker_shards.clear()
        with pytest.raises(RuntimeError, match="cache miss"):
            _resolve_chunk([(0, new_ref, light)])

    def test_task_boundary_evicts_other_task_training_shards_and_no_eval_slice(
        self, tiny_spec, worker_shards
    ):
        from repro.federated.execution import _evict_stale_shards, _install_shards

        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "test")
        refs = {
            (plane, task_id): _WORK_UNITS[plane](dataset, task_id).shard_ref()
            for plane in ("train", "eval")
            for task_id in (0, 1)
        }
        _install_shards({ref: pickle.dumps(dataset) for ref in refs.values()})
        assert len(worker_shards) == 4
        _evict_stale_shards(worker_shards, task_id=1)  # a train chunk for task 1 arrives
        assert set(worker_shards) == {
            refs["train", 1].identity,
            refs["eval", 0].identity,
            refs["eval", 1].identity,
        }
        _evict_stale_shards(worker_shards, task_id=1)  # same task again: nothing more goes
        assert len(worker_shards) == 3

    def test_eval_chunk_matches_in_process_counts(
        self, tiny_spec, tiny_backbone_config, worker_shards
    ):
        """The eval worker entry point, fed from the cache: counts equal the
        serial count_correct over the same slices."""
        from repro.federated.execution import _install_shards, _resolve_chunk, _run_eval_chunk

        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        model = method.build_model()
        state = model.state_dict()
        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "test")
        jobs = [
            EvalJob(task_id=0, slice_index=i, dataset=piece, batch_size=4)
            for i, piece in enumerate(batch_aligned_slices(dataset, batch_size=4, num_slices=2))
        ]
        _install_shards({job.shard_ref(): pickle.dumps(job.dataset) for job in jobs})
        results = _run_eval_chunk(
            pickle.dumps(method),
            BroadcastHandle(state, {}).serialized(),
            _resolve_chunk([(i, job.shard_ref(), job.lighten()) for i, job in enumerate(jobs)]),
            "float64",
        )
        model.load_state_dict(state)
        assert [index for index, _, _ in results] == [0, 1]
        for (_, correct, total), job in zip(results, jobs):
            assert total == len(job.dataset)
            assert correct == count_correct(
                model, job.dataset, batch_size=job.batch_size, predict_fn=method.predict_logits
            )


class TestShardCache:
    def _handles(self, datasets, task_id, round_index=0):
        return [
            _handle(dataset, task_id, client_id, round_index)
            for client_id, dataset in enumerate(datasets)
        ]

    def test_shard_ships_once_per_task_and_invalidates_on_new_fingerprint(
        self, tiny_spec, tiny_backbone_config
    ):
        """Driving the executor directly with stable client ids: round 2 of a
        task ships zero shard bytes (pure cache hits) and a task boundary —
        new task id, concatenated data, new fingerprint — re-ships."""
        method = build_method("finetune", tiny_backbone_config, num_tasks=2)
        server = FederatedServer(method.build_model())
        source = SyntheticDomainDataset(tiny_spec)
        task0 = [source.domain_split(0, "train").subset(np.arange(s, s + 8)) for s in (0, 8)]
        task1 = [source.domain_split(1, "train").subset(np.arange(s, s + 8)) for s in (0, 8)]
        with ParallelExecutor(num_workers=2) as executor:
            model = method.build_model()
            for round_index in range(2):
                executor.run_round(
                    method, model, server.broadcast_view(),
                    self._handles(task0, task_id=0, round_index=round_index),
                )
            for round_index in range(2):
                executor.run_round(
                    method, model, server.broadcast_view(),
                    self._handles(task1, task_id=1, round_index=round_index),
                )
            first, hit, boundary, hit_again = executor.ipc_log
        assert first.shard_bytes > 0 and first.shards_shipped == 2
        assert hit.shard_bytes == 0 and hit.cache_hits == 2
        assert boundary.shard_bytes > 0 and boundary.shards_shipped == 2
        assert hit_again.shard_bytes == 0 and hit_again.cache_hits == 2

    def test_replayed_chunk_counts_its_message_and_blobs(self, tiny_spec, tiny_backbone_config):
        """Regression: a chunk replayed to a respawned worker is a third
        message carrying the method and broadcast blobs again; the round's
        record used to count its re-shipped shard but only two messages."""
        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        server = FederatedServer(method.build_model())
        source = SyntheticDomainDataset(tiny_spec)
        shards = [source.domain_split(0, "train").subset(np.arange(s, s + 8)) for s in (0, 8)]
        broadcast = server.broadcast_view()
        method_blob = pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL)
        with ParallelExecutor(num_workers=2, max_respawns=1) as executor:
            model = method.build_model()
            executor.run_round(method, model, broadcast, self._handles(shards, task_id=0))
            executor.request_worker_kill(0)
            executor.run_round(
                method, model, broadcast, self._handles(shards, task_id=0, round_index=1)
            )
            assert executor.respawns == 1
            warm, healed = executor.ipc_log
        assert (warm.num_messages, warm.shards_shipped, warm.cache_hits) == (2, 2, 0)
        # Both first sends hit the cache; the replay re-ships the victim's shard.
        assert (healed.num_messages, healed.shards_shipped, healed.cache_hits) == (3, 1, 2)
        assert healed.broadcast_bytes == 3 * len(broadcast.serialized())
        assert healed.method_bytes == 3 * len(method_blob)
        assert healed.shard_bytes == warm.shard_bytes // 2

    def test_mixed_task_round_is_rejected(self, tiny_spec, tiny_backbone_config):
        """Task-boundary eviction keys on the round's single task id, so a
        round mixing tasks must fail loudly at entry, not corrupt the cache."""
        method = build_method("finetune", tiny_backbone_config, num_tasks=2)
        server = FederatedServer(method.build_model())
        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "train")
        [h0] = self._handles([dataset], task_id=0)
        [h1] = self._handles([dataset], task_id=1)
        h1.client_id = 1
        with ParallelExecutor(num_workers=2) as executor:
            with pytest.raises(ValueError, match="share one task_id"):
                executor.run_round(method, method.build_model(), server.broadcast_view(), [h0, h1])

    def test_multi_task_simulation_parity_with_cache_hits(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """Serial vs parallel over 2 tasks x 2 rounds: the cached run must be
        bit-for-bit identical while actually exercising hits (rounds after
        the first of a task) and invalidations (in-between clients concat)."""
        config = replace(tiny_federated_config, rounds_per_task=2)
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method("refil", tiny_backbone_config, num_tasks=scenario.num_tasks)
        serial = FederatedDomainIncrementalSimulation(scenario, method, config).run()

        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method("refil", tiny_backbone_config, num_tasks=scenario.num_tasks)
        sim = FederatedDomainIncrementalSimulation(
            scenario, method, replace(config, executor="parallel", num_workers=2)
        )
        parallel = sim.run()
        np.testing.assert_array_equal(serial.metrics.matrix, parallel.metrics.matrix)
        assert serial.round_losses == parallel.round_losses
        log = sim.executor.ipc_log
        assert len(log) == 4  # 2 tasks x 2 rounds
        assert sum(ipc.cache_hits for ipc in log) > 0
        assert log[2].task_id == 1 and log[2].shards_shipped > 0  # invalidated at boundary


class _StateMutatingMethod:
    """A contract-violating method that writes to the shared broadcast state.

    Module-level (not a closure) so it pickles by reference like real methods.
    Only implements what ``_run_client_chunk`` touches.
    """

    name = "mutator"

    def __init__(self, backbone_config):
        self.backbone_config = backbone_config

    def build_model(self):
        from repro.models.backbone import PromptedBackbone

        return PromptedBackbone(self.backbone_config)

    def local_update(self, model, global_state, broadcast_payload, client):
        next(iter(global_state.values()))[...] = 0.0  # must raise read-only

    def export_client_state(self, client_id):
        return None


class TestWorkerContract:
    def test_worker_reprotects_broadcast_state_after_pickling(
        self, tiny_spec, tiny_backbone_config
    ):
        """numpy's writeable flag does not survive pickling; the worker must
        re-apply the read-only view so contract violations fail in parallel
        mode exactly as they do in serial mode."""
        from repro.federated.execution import _run_client_chunk

        method = _StateMutatingMethod(tiny_backbone_config)
        state = method.build_model().state_dict()
        client = ClientHandle(
            client_id=0,
            task_id=0,
            group=ClientGroup.NEW,
            dataset=SyntheticDomainDataset(tiny_spec).domain_split(0, "train"),
            rng=np.random.default_rng(0),
            training=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        )
        with pytest.raises(ValueError, match="read-only"):
            _run_client_chunk(
                pickle.dumps(method),
                BroadcastHandle(state, {}).serialized(),
                [(0, client)],
                "float64",
            )


class _UnpicklableUpdate(FinetuneMethod):
    """A method whose update carries a lambda, so its report cannot be pickled."""

    name = "unpicklable-update"

    def local_update(self, model, global_state, broadcast_payload, client):
        update = super().local_update(model, global_state, broadcast_payload, client)
        update.payload["hook"] = lambda: None
        return update


#: Train chunks this process has run; a forked worker starts from the parent's 0.
_CHUNKS_RUN = [0]


def _send_half_then_exit(conn, buf):
    """Write a report's length header and half its bytes, then die."""
    conn._send(struct.pack("!i", len(buf)) + bytes(buf[: len(buf) // 2]))
    os._exit(7)


def _dies_mid_second_report(method_blob, broadcast_blob, indexed_clients, dtype_name):
    """The train chunk runner, except that the worker holding client 0 dies
    halfway through sending its second report (a fresh replacement's first
    report goes through)."""
    results = execution._run_client_chunk(method_blob, broadcast_blob, indexed_clients, dtype_name)
    _CHUNKS_RUN[0] += 1
    if _CHUNKS_RUN[0] == 2 and any(client.client_id == 0 for _, client in indexed_clients):
        Connection._send_bytes = _send_half_then_exit
    return results


class TestPoolFailures:
    """A failure in one worker's chunk or report never hangs the pool and
    never leaks into a later round."""

    def _setup(self, tiny_spec, tiny_backbone_config):
        reference = build_method("finetune", tiny_backbone_config, num_tasks=1)
        source = SyntheticDomainDataset(tiny_spec)
        shards = [source.domain_split(0, "train").subset(np.arange(s, s + 8)) for s in (0, 8)]
        broadcast = FederatedServer(reference.build_model()).broadcast_view()

        def handles(round_index):
            return [
                _handle(shard, 0, client_id, round_index) for client_id, shard in enumerate(shards)
            ]

        return reference, broadcast, handles

    def _assert_serial(self, updates, tiny_backbone_config, broadcast, clients):
        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        expected = SerialExecutor().run_round(method, method.build_model(), broadcast, clients)
        assert [u.client_id for u in updates] == [u.client_id for u in expected]
        assert [u.train_loss for u in updates] == [u.train_loss for u in expected]
        for update, want in zip(updates, expected):
            for key, value in want.state_dict.items():
                assert update.state_dict[key].tobytes() == value.tobytes()

    def test_interrupted_fan_out_leaves_nothing_for_the_next_round(
        self, tiny_spec, tiny_backbone_config
    ):
        """Regression: a KeyboardInterrupt while collecting left the round's
        reports in flight, and the next round returned them as its own."""
        method, broadcast, handles = self._setup(tiny_spec, tiny_backbone_config)
        with ParallelExecutor(num_workers=2) as executor:
            model = method.build_model()

            def interrupt(*args):
                del executor._collect_healing  # only this call is interrupted
                raise KeyboardInterrupt

            executor._collect_healing = interrupt
            with pytest.raises(KeyboardInterrupt):
                executor.run_round(method, model, broadcast, handles(0))
            updates = executor.run_round(method, model, broadcast, handles(1))
        self._assert_serial(updates, tiny_backbone_config, broadcast, handles(1))

    def test_unpicklable_result_raises_and_the_pool_stays_usable(
        self, tiny_spec, tiny_backbone_config
    ):
        method, broadcast, handles = self._setup(tiny_spec, tiny_backbone_config)
        bad = _UnpicklableUpdate(BaselineConfig(backbone=tiny_backbone_config))
        with ParallelExecutor(num_workers=2) as executor:
            model = method.build_model()
            with pytest.raises(Exception, match="(?i)pickle") as excinfo:
                executor.run_round(bad, model, broadcast, handles(0))
            assert "worker traceback" in str(excinfo.value.__cause__)
            updates = executor.run_round(method, model, broadcast, handles(1))
            assert executor.respawns == 0
        self._assert_serial(updates, tiny_backbone_config, broadcast, handles(1))

    @pytest.mark.skipif(
        not (sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods()),
        reason="the dying chunk runner reaches workers only through fork",
    )
    @pytest.mark.parametrize("max_respawns", [1, 0])
    def test_death_mid_report(self, tiny_spec, tiny_backbone_config, monkeypatch, max_respawns):
        """A worker that dies after writing part of its report is dead, not
        wedged: its peer's report still arrives, and the chunk heals within
        budget or is named in WorkerDiedError beyond it."""
        method, broadcast, handles = self._setup(tiny_spec, tiny_backbone_config)
        monkeypatch.setitem(execution._CHUNK_RUNNERS, "train", _dies_mid_second_report)
        reports = []
        collect = execution._PinnedWorkerPool.collect

        def recording_collect(pool, pending):
            ready = collect(pool, pending)
            reports.extend((worker_id, status) for worker_id, status, _ in ready)
            return ready

        monkeypatch.setattr(execution._PinnedWorkerPool, "collect", recording_collect)
        with ParallelExecutor(num_workers=2, max_respawns=max_respawns) as executor:
            model = method.build_model()
            executor.run_round(method, model, broadcast, handles(0))
            if max_respawns:
                updates = executor.run_round(method, model, broadcast, handles(1))
                assert executor.respawns == 1
            else:
                with pytest.raises(WorkerDiedError) as excinfo:
                    executor.run_round(method, model, broadcast, handles(1))
                error = excinfo.value
                assert (error.worker_ids, error.exit_codes, error.client_ids) == ([0], [7], [0])
        # Client 0 is pinned to worker 0; worker 1's round-two report arrived.
        assert sorted(reports[2:4]) == [(0, "dead"), (1, "ok")]
        if max_respawns:
            assert reports[4:] == [(0, "ok")]
            self._assert_serial(updates, tiny_backbone_config, broadcast, handles(1))


class TestPrecision:
    def _local_update(self, tiny_spec, tiny_backbone_config):
        method = build_method("refil", tiny_backbone_config, num_tasks=2)
        model = method.build_model()
        server = FederatedServer(model)
        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "train")
        client = ClientHandle(
            client_id=0,
            task_id=0,
            group=ClientGroup.NEW,
            dataset=dataset,
            rng=np.random.default_rng(3),
            training=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        )
        return method.local_update(model, server.global_state, server.broadcast_payload, client)

    def test_float32_local_update_matches_float64_within_tolerance(
        self, tiny_spec, tiny_backbone_config
    ):
        with default_dtype(np.float64):
            reference = self._local_update(tiny_spec, tiny_backbone_config)
        with default_dtype(np.float32):
            low_precision = self._local_update(tiny_spec, tiny_backbone_config)
        assert low_precision.train_loss == pytest.approx(reference.train_loss, rel=1e-3, abs=1e-4)
        for key, value in reference.state_dict.items():
            assert low_precision.state_dict[key].dtype == np.float32
            np.testing.assert_allclose(
                low_precision.state_dict[key], value, rtol=1e-2, atol=1e-3
            )

    def test_dataset_astype_honors_requested_dtype_off_default(self):
        from repro.datasets.base import ArrayDataset

        with default_dtype(np.float32):
            dataset = ArrayDataset(np.zeros((2, 3, 4, 4)), np.zeros(2, dtype=np.int64))
            assert dataset.images.dtype == np.float32
            widened = dataset.astype(np.float64)
        assert widened.images.dtype == np.float64
        assert dataset.astype(np.float32) is dataset

    def test_default_dtype_context_restores(self):
        assert get_default_dtype() == np.float64
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    @pytest.mark.parametrize("method_name", ["refil", "fedewc"])
    def test_float32_simulation_end_to_end(
        self, monkeypatch, tiny_spec, tiny_backbone_config, tiny_federated_config, method_name
    ):
        """A default run computes in float32 throughout.  ``Tensor`` casts
        every op result to the compute dtype, so a float64 intermediate would
        cost the bandwidth float32 saves without moving a hash: every op's
        forward and vjp outputs are checked where they are made, and so are
        the optimizer's velocities, the BatchNorm running statistics, the
        server's state and the evaluator's test sets."""
        assert tiny_federated_config.dtype == "float32"
        float32 = np.dtype(np.float32)
        wide = set()

        def checked(name, function):
            def call(*args, **kwargs):
                returned = function(*args, **kwargs)
                outputs = returned if isinstance(returned, (tuple, list)) else (returned,)
                if any(getattr(out, "dtype", None) == np.float64 for out in outputs):
                    wide.add(name)
                return returned

            return call

        wrapped = {}

        def apply_checked(op, inputs, **kwargs):
            if op not in wrapped:
                vjp = op.vjp and checked(op.name + " vjp", op.vjp)
                wrapped[op] = replace(op, forward=checked(op.name, op.forward), vjp=vjp)
            return apply_op(wrapped[op], inputs, **kwargs)

        monkeypatch.setattr(tensor_module, "apply_op", apply_checked)
        monkeypatch.setattr(functional, "apply_op", apply_checked)
        velocities = []
        sgd_step = SGD.step

        def recording_step(optimizer):
            sgd_step(optimizer)
            velocities.extend(optimizer._velocity.values())

        monkeypatch.setattr(SGD, "step", recording_step)
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method(method_name, tiny_backbone_config, num_tasks=scenario.num_tasks)
        simulation = FederatedDomainIncrementalSimulation(scenario, method, tiny_federated_config)
        result = simulation.run()
        assert np.isfinite(result.metrics.matrix[~np.isnan(result.metrics.matrix)]).all()
        assert all(np.isfinite(loss) for loss in result.round_losses)
        # the context manager must not leak the dtype into the process default
        assert get_default_dtype() == np.float64

        assert wrapped
        assert not wide, f"ops returning float64: {sorted(wide)}"
        assert velocities and {v.dtype for v in velocities} == {float32}
        state = simulation.server.global_state
        assert {a.dtype for a in state.values() if a.dtype.kind == "f"} == {float32}
        running = [key for key in state if key.endswith(("running_mean", "running_var"))]
        assert running and {state[key].dtype for key in running} == {float32}
        converted = simulation.evaluator._converted_tests
        assert converted and {test.images.dtype for test in converted.values()} == {float32}


class TestLossBreakdown:
    def test_refil_update_reports_loss_components(self, tiny_spec, tiny_backbone_config):
        method = build_method("refil", tiny_backbone_config, num_tasks=2)
        model = method.build_model()
        server = FederatedServer(model)
        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "train")
        client = ClientHandle(
            client_id=0,
            task_id=0,
            group=ClientGroup.NEW,
            dataset=dataset,
            rng=np.random.default_rng(3),
            training=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        )
        update = method.local_update(model, server.global_state, server.broadcast_payload, client)
        metrics = update.metrics
        assert set(metrics) == {"loss_ce", "loss_gpl", "loss_dpcl", "loss_total"}
        assert metrics["loss_total"] == pytest.approx(update.train_loss)
        assert metrics["loss_total"] == pytest.approx(
            metrics["loss_ce"] + metrics["loss_gpl"] + metrics["loss_dpcl"], rel=1e-9
        )

    def test_simulation_records_round_loss_components(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        result = _run_simulation(tiny_spec, tiny_backbone_config, tiny_federated_config)
        assert len(result.round_loss_components) == len(result.round_losses)
        for components, mean_loss in zip(result.round_loss_components, result.round_losses):
            assert components["loss_total"] == pytest.approx(mean_loss)
