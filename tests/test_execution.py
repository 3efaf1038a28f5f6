"""Tests of the round execution engine: executor parity, broadcast handle, dtype path."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import multiprocessing
import os
import pickle
import struct
import sys
import types
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
from repro.datasets import ArrayDataset, SyntheticDomainDataset
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


def _state_hash(state):
    digest = hashlib.sha256()
    for key in sorted(state):
        array = np.ascontiguousarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestChunks:
    """A chunk carries its work units whole, datasets included."""

    def test_eval_chunk_matches_in_process_counts(self, tiny_spec, tiny_backbone_config):
        """The eval worker entry point: counts equal the serial count_correct
        over the same slices."""
        from repro.federated.execution import _run_eval_chunk

        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        model = method.build_model()
        state = model.state_dict()
        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "test")
        jobs = [
            EvalJob(task_id=0, slice_index=i, dataset=piece, batch_size=4)
            for i, piece in enumerate(batch_aligned_slices(dataset, batch_size=4, num_slices=2))
        ]
        results = _run_eval_chunk(
            pickle.dumps(method),
            BroadcastHandle(state, {}).serialized(),
            list(enumerate(jobs)),
            "float64",
        )
        model.load_state_dict(state)
        assert [index for index, _, _ in results] == [0, 1]
        for (_, correct, total), job in zip(results, jobs):
            assert total == len(job.dataset)
            assert correct == count_correct(
                model, job.dataset, batch_size=job.batch_size, predict_fn=method.predict_logits
            )

    @pytest.mark.parametrize("kind", ["train", "eval"])
    def test_message_is_all_a_cold_worker_reads(self, kind, tiny_spec, tiny_backbone_config):
        """A chunk's message pickled as the pipe pickles it, then run by its
        kind's runner with an empty replica cache, gives what the same runner
        gives on the parent's own objects: the worker keeps nothing a chunk
        needs."""
        from repro.federated.execution import _CHUNK_RUNNERS, _WORKER_REPLICAS

        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        server = FederatedServer(method.build_model())
        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "train").subset(np.arange(16))

        def payload():
            if kind == "train":
                units = [
                    (i, _handle(dataset.subset(np.arange(s, s + 8)), 0, i))
                    for i, s in enumerate((0, 8))
                ]
            else:
                units = [
                    (i, EvalJob(task_id=0, slice_index=i, dataset=piece, batch_size=4))
                    for i, piece in enumerate(batch_aligned_slices(dataset, 4, 2))
                ]
            return (
                pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL),
                server.broadcast_view().serialized(),
                units,
                get_default_dtype().name,
            )

        def comparable(results):
            if kind == "eval":
                return results
            return [
                (index, update.client_id, update.num_samples, update.train_loss,
                 _state_hash(update.state_dict), exported)
                for index, update, exported in results
            ]

        before = dict(_WORKER_REPLICAS)
        try:
            expected = _CHUNK_RUNNERS[kind](*payload())
            _WORKER_REPLICAS.clear()
            sent_kind, sent = pickle.loads(
                pickle.dumps((kind, payload()), protocol=pickle.HIGHEST_PROTOCOL)
            )
            assert [len(unit.dataset) for _, unit in sent[2]] == [8, 8]
            received = _CHUNK_RUNNERS[sent_kind](*sent)
        finally:
            _WORKER_REPLICAS.clear()
            _WORKER_REPLICAS.update(before)
        assert comparable(received) == comparable(expected)

    def test_long_lived_pool_never_trains_on_stale_data(self, tiny_spec, tiny_backbone_config):
        """One pool across a task boundary, where the in-between client's
        shard grows by its previous task's data, then across a dtype switch
        that replays the same task and client ids: the server state equals
        the serial run's after every round, so no worker ever trains on data
        the parent no longer holds."""

        def run(executor):
            hashes = []
            for dtype in ("float64", "float32"):
                with default_dtype(dtype):
                    source = SyntheticDomainDataset(tiny_spec)
                    method = build_method("finetune", tiny_backbone_config, num_tasks=2)
                    server = FederatedServer(method.build_model())
                    model = method.build_model()
                    old, new = (
                        [source.domain_split(task, "train").subset(np.arange(s, s + 8)) for s in (0, 8)]
                        for task in (0, 1)
                    )
                    shards = [old, [new[0], ArrayDataset.concatenate((old[1], new[1]))]]
                    for task_id, datasets in enumerate(shards):
                        for round_index in range(2):
                            handles = [
                                _handle(dataset, task_id, client_id, round_index)
                                for client_id, dataset in enumerate(datasets)
                            ]
                            updates = executor.run_round(
                                method, model, server.broadcast_view(), handles
                            )
                            method.aggregate(server, updates)
                            hashes.append(_state_hash(server.global_state))
            return hashes

        serial = run(SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run(executor)
        assert len(set(serial)) == len(serial) == 8
        assert parallel == serial


    def test_shard_bytes_repeat_every_round_and_grow_at_task_boundary(
        self, tiny_spec, tiny_backbone_config
    ):
        """Every round's chunks carry their clients' datasets again: each
        record's shard bytes are the pickled size of its round's datasets, so
        rounds of one task match, and the boundary that grows the in-between
        client's shard records more."""
        method = build_method("finetune", tiny_backbone_config, num_tasks=2)
        server = FederatedServer(method.build_model())
        source = SyntheticDomainDataset(tiny_spec)
        old, new = (
            [source.domain_split(task, "train").subset(np.arange(s, s + 8)) for s in (0, 8)]
            for task in (0, 1)
        )
        shards = [old, [new[0], ArrayDataset.concatenate((old[1], new[1]))]]
        with ParallelExecutor(num_workers=2) as executor:
            model = method.build_model()
            for task_id, datasets in enumerate(shards):
                for round_index in range(2):
                    handles = [
                        _handle(dataset, task_id, client_id, round_index)
                        for client_id, dataset in enumerate(datasets)
                    ]
                    executor.run_round(method, model, server.broadcast_view(), handles)
            records = executor.ipc_log
        expected = [
            sum(len(pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL)) for d in datasets)
            for datasets in shards
            for _ in range(2)
        ]
        assert [record.shard_bytes for record in records] == expected
        assert [record.task_id for record in records] == [0, 0, 1, 1]
        assert expected[0] == expected[1] < expected[2] == expected[3]
        # Each of a round's two messages carries the method's bytes once.
        method_bytes = len(pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL))
        assert [(r.num_messages, r.method_bytes) for r in records] == [(2, 2 * method_bytes)] * 4

    def test_mixed_task_round_matches_serial(self, tiny_spec, tiny_backbone_config):
        """A round whose clients belong to different tasks runs on the pool,
        and its updates equal the serial executor's."""
        source = SyntheticDomainDataset(tiny_spec)
        datasets = [source.domain_split(task, "train").subset(np.arange(8)) for task in (0, 1)]

        def run(executor):
            method = build_method("finetune", tiny_backbone_config, num_tasks=2)
            server = FederatedServer(method.build_model())
            handles = [
                _handle(dataset, task_id, client_id=task_id)
                for task_id, dataset in enumerate(datasets)
            ]
            updates = executor.run_round(
                method, method.build_model(), server.broadcast_view(), handles
            )
            return [
                (u.client_id, u.num_samples, u.train_loss, _state_hash(u.state_dict))
                for u in updates
            ]

        serial = run(SerialExecutor())
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run(executor)
            assert [record.num_messages for record in executor.ipc_log] == [2]
        assert len(serial) == 2
        assert parallel == serial

    def test_multi_task_simulation_parity(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """Serial vs parallel RefFiL over 2 tasks x 2 rounds, where in-between
        clients' shards grow at the boundary: bit-for-bit identical, and every
        round's chunks carry shards."""
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
        assert [ipc.task_id for ipc in log] == [0, 0, 1, 1]
        assert all(ipc.shard_bytes > 0 for ipc in log)


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
    halfway through sending its second report (a fresh pool's first report
    goes through)."""
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
                del executor._collect  # only this call is interrupted
                raise KeyboardInterrupt

            executor._collect = interrupt
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
        self._assert_serial(updates, tiny_backbone_config, broadcast, handles(1))

    @pytest.mark.skipif(
        not (sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods()),
        reason="the dying chunk runner reaches workers only through fork",
    )
    def test_death_mid_report(self, tiny_spec, tiny_backbone_config, monkeypatch):
        """A worker that dies after writing part of its report is dead, not
        wedged: its peer's report still arrives, WorkerDiedError names the
        dead worker, its exit code and its client, and the executor's next
        round runs on a fresh pool."""
        method, broadcast, handles = self._setup(tiny_spec, tiny_backbone_config)
        monkeypatch.setitem(execution._CHUNK_RUNNERS, "train", _dies_mid_second_report)
        reports = []
        collect = execution._PinnedWorkerPool.collect

        def recording_collect(pool, pending):
            ready = collect(pool, pending)
            reports.extend((worker_id, status) for worker_id, status, _ in ready)
            return ready

        monkeypatch.setattr(execution._PinnedWorkerPool, "collect", recording_collect)
        with ParallelExecutor(num_workers=2) as executor:
            model = method.build_model()
            executor.run_round(method, model, broadcast, handles(0))
            with pytest.raises(WorkerDiedError) as excinfo:
                executor.run_round(method, model, broadcast, handles(1))
            error = excinfo.value
            assert (error.worker_ids, error.exit_codes, error.client_ids) == ([0], [7], [0])
            # Fresh workers fork from this process, which has run no chunk.
            updates = executor.run_round(method, model, broadcast, handles(2))
        # Client 0 is pinned to worker 0; worker 1's round-two report arrived.
        assert sorted(reports[2:4]) == [(0, "dead"), (1, "ok")]
        assert sorted(reports[4:]) == [(0, "ok"), (1, "ok")]
        self._assert_serial(updates, tiny_backbone_config, broadcast, handles(2))


class TestWorkerBlasThreads:
    def test_a_pool_worker_runs_one_blas_thread(self, tiny_spec, tiny_backbone_config):
        """A forked worker inherits the parent's BLAS thread count; every
        worker pins one thread and each call's IPC record says so (``None``
        where NumPy's OpenBLAS lacks the symbol)."""
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        pinnable = any(
            hasattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_")
            for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so"))
        )
        expected = (1, 1) if pinnable else (None, None)
        method, broadcast, handles = TestPoolFailures()._setup(tiny_spec, tiny_backbone_config)
        with ParallelExecutor(num_workers=2) as executor:
            model = method.build_model()
            executor.run_round(method, model, broadcast, handles(0))
            executor.run_round(method, model, broadcast, handles(1))
            assert [record.blas_threads for record in executor.ipc_log] == [expected] * 2


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
        the optimizer's velocities, the BatchNorm running statistics and the
        server's state.  Nor may the scenario, the evaluator or the client
        plane hold a float64 image array: the splits are cast once."""
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
            velocities.append(optimizer._velocity)

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
        assert not _float64_images(simulation.scenario, simulation.evaluator, simulation.virtual)
        assert simulation.virtual._task_train and simulation.virtual._cache


_NOT_HELD = (type, types.ModuleType, types.FunctionType, types.MethodType)


def _float64_images(*roots):
    """Shapes of the float64 image arrays reachable from ``roots``.

    Follows containers and instance attributes, not functions or modules, so
    the walk stays within the objects the roots hold.
    """
    found, seen, stack = [], set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_HELD):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.ndim == 4 and obj.dtype == np.float64:
                found.append(obj.shape)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


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
