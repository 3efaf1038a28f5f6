"""Tests of the evaluation plane: batch-aligned slicing, serial/parallel accuracy
parity, eval IPC accounting and ``eval_every`` (the chunk messages both planes
share are tested in ``test_execution.py``)."""

from __future__ import annotations

import numpy as np
import pytest
from dataclasses import replace

from repro.baselines.finetune import FinetuneMethod
from repro.baselines.registry import build_method
from repro.continual import (
    DomainIncrementalScenario,
    SerialEvalBackend,
    count_correct,
    evaluate_accuracy,
)
from repro.continual.scenario import Task
from repro.datasets import SyntheticDomainDataset
from repro.datasets.base import ArrayDataset
from repro.federated import (
    FederatedConfig,
    FederatedDomainIncrementalSimulation,
    ParallelEvalBackend,
    ParallelExecutor,
    batch_aligned_slices,
)
from repro.federated.communication import ClientUpdate
from repro.federated.server import FederatedServer
from repro.federated.simulation import _mean_update_metrics


def _run_simulation(tiny_spec, tiny_backbone_config, config, method_name="refil"):
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
    method = build_method(method_name, tiny_backbone_config, num_tasks=scenario.num_tasks)
    simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
    return simulation, simulation.run()


class TestBatchAlignedSlices:
    def _dataset(self, n):
        images = np.arange(n * 3 * 2 * 2, dtype=np.float64).reshape(n, 3, 2, 2) / (n * 12)
        return ArrayDataset(images, np.arange(n) % 3)

    def test_boundaries_fall_on_the_batch_grid(self):
        dataset = self._dataset(22)
        slices = batch_aligned_slices(dataset, batch_size=4, num_slices=3)
        # 6 batches split 2/2/2 -> sample spans 8/8/6.
        assert [len(piece) for piece in slices] == [8, 8, 6]
        for piece in slices[:-1]:
            assert len(piece) % 4 == 0

    def test_slices_partition_the_dataset_in_order(self):
        dataset = self._dataset(22)
        slices = batch_aligned_slices(dataset, batch_size=4, num_slices=3)
        rebuilt = ArrayDataset.concatenate(tuple(slices))
        np.testing.assert_array_equal(rebuilt.images, dataset.images)
        np.testing.assert_array_equal(rebuilt.labels, dataset.labels)

    def test_never_more_slices_than_batches(self):
        dataset = self._dataset(6)
        slices = batch_aligned_slices(dataset, batch_size=4, num_slices=8)
        assert len(slices) == 2  # ceil(6/4) batches
        assert [len(piece) for piece in slices] == [4, 2]

    def test_single_slice_is_whole_dataset(self):
        dataset = self._dataset(10)
        [only] = batch_aligned_slices(dataset, batch_size=64, num_slices=4)
        assert len(only) == 10

    def test_validation(self):
        dataset = self._dataset(4)
        with pytest.raises(ValueError):
            batch_aligned_slices(dataset, batch_size=0, num_slices=2)
        with pytest.raises(ValueError):
            batch_aligned_slices(dataset, batch_size=4, num_slices=0)
        with pytest.raises(ValueError):
            batch_aligned_slices(
                ArrayDataset(np.zeros((0, 3, 2, 2)), np.zeros(0, dtype=int)), 4, 2
            )

    def test_sliced_counts_sum_to_serial_count(self, tiny_spec, tiny_backbone_config):
        """The parity invariant at its root: integer correct counts over the
        slices sum to the count over the whole set."""
        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        model = method.build_model()
        dataset = SyntheticDomainDataset(tiny_spec).domain_split(0, "test")
        serial = count_correct(model, dataset, batch_size=4)
        sliced = sum(
            count_correct(model, piece, batch_size=4)
            for piece in batch_aligned_slices(dataset, batch_size=4, num_slices=3)
        )
        assert sliced == serial


class TestEvalParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_serial_and_parallel_eval_matrices_identical(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, dtype
    ):
        """The acceptance criterion: the full accuracy matrix (hence
        Avg/Last/FGT/BwT) is bit-for-bit identical across eval executors, at
        both compute precisions."""
        config = replace(tiny_federated_config, dtype=dtype, eval_batch_size=4)
        _, serial = _run_simulation(tiny_spec, tiny_backbone_config, config)
        _, parallel = _run_simulation(
            tiny_spec,
            tiny_backbone_config,
            replace(config, eval_executor="parallel", num_workers=2),
        )
        np.testing.assert_array_equal(serial.metrics.matrix, parallel.metrics.matrix)
        assert serial.per_task_accuracy == parallel.per_task_accuracy
        assert serial.metrics.average == parallel.metrics.average
        assert serial.metrics.forgetting == parallel.metrics.forgetting

    def test_parallel_eval_shares_the_training_pool(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """With executor="parallel" too, evaluation jobs ride the *same*
        pinned pool as training chunks (no second pool), and results still
        match serial bit-for-bit."""
        config = replace(tiny_federated_config, eval_batch_size=4)
        _, serial = _run_simulation(tiny_spec, tiny_backbone_config, config)
        simulation, parallel = _run_simulation(
            tiny_spec,
            tiny_backbone_config,
            replace(config, executor="parallel", eval_executor="parallel", num_workers=2),
        )
        assert simulation.eval_executor is simulation.executor
        assert simulation.eval_executor.eval_ipc_log and simulation.executor.ipc_log
        np.testing.assert_array_equal(serial.metrics.matrix, parallel.metrics.matrix)
        assert serial.round_losses == parallel.round_losses
        assert serial.per_task_accuracy == parallel.per_task_accuracy

    def test_one_and_many_workers_identical(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = replace(
            tiny_federated_config, eval_executor="parallel", eval_batch_size=4
        )
        _, one = _run_simulation(
            tiny_spec, tiny_backbone_config, replace(config, num_workers=1)
        )
        _, three = _run_simulation(
            tiny_spec, tiny_backbone_config, replace(config, num_workers=3)
        )
        np.testing.assert_array_equal(one.metrics.matrix, three.metrics.matrix)
        assert one.per_task_accuracy == three.per_task_accuracy

    def test_backend_reslices_when_test_content_changes(self, tiny_spec, tiny_backbone_config):
        """A backend reused across scenarios must never score a stale dataset
        that shares a task id, dtype and batch size with a previous one."""
        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        model = method.build_model()
        source = SyntheticDomainDataset(tiny_spec)
        data_a = source.domain_split(0, "test")
        data_b = source.domain_split(1, "test")  # same shape/dtype, different content
        with ParallelExecutor(num_workers=2) as executor:
            backend = ParallelEvalBackend(executor, method)
            [acc_a] = backend.evaluate(
                model, [(Task(0, "a", data_a, data_a), data_a)], 4, method.predict_logits
            )
            [acc_b] = backend.evaluate(
                model, [(Task(0, "b", data_b, data_b), data_b)], 4, method.predict_logits
            )
        assert acc_a == evaluate_accuracy(model, data_a, 4, predict_fn=method.predict_logits)
        assert acc_b == evaluate_accuracy(model, data_b, 4, predict_fn=method.predict_logits)

    def test_custom_predict_fn_is_rejected_loudly(self, tiny_spec, tiny_backbone_config):
        """A caller-supplied inference closure cannot cross the process
        boundary; the parallel backend must refuse it instead of silently
        scoring through the method path."""
        from repro.continual.evaluator import GlobalEvaluator

        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=1)
        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        model = method.build_model()
        with ParallelExecutor(num_workers=2) as executor:
            evaluator = GlobalEvaluator(
                scenario,
                batch_size=4,
                predict_fn=lambda model, images: model(images),  # not the method's own
                backend=ParallelEvalBackend(executor, method),
            )
            with pytest.raises(ValueError, match="predict_logits"):
                evaluator.evaluate_after_task(model, 0)
            # predict_fn=None is rejected too: the serial backend would score
            # plain model(images), which diverges from predict_logits for
            # prompt-based methods.
            evaluator.predict_fn = None
            with pytest.raises(ValueError, match="predict_logits"):
                evaluator.evaluate_after_task(model, 0)
            # The method's own bound predict_logits is the supported hook.
            evaluator.predict_fn = method.predict_logits
            results = evaluator.evaluate_after_task(model, 0)
        assert len(results) == 1

    def test_standalone_backend_without_broadcast_fn(self, tiny_spec, tiny_backbone_config):
        """The backend is usable outside the simulation: without a version
        handle it scores the model's own state."""
        from repro.continual.evaluator import GlobalEvaluator

        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method("finetune", tiny_backbone_config, num_tasks=2)
        model = method.build_model()
        reference = GlobalEvaluator(scenario, batch_size=4, predict_fn=method.predict_logits)
        with ParallelExecutor(num_workers=2) as executor:
            fanned = GlobalEvaluator(
                scenario,
                batch_size=4,
                predict_fn=method.predict_logits,
                backend=ParallelEvalBackend(executor, method),
            )
            for task_id in range(2):
                expected = reference.evaluate_after_task(model, task_id)
                assert fanned.evaluate_after_task(model, task_id) == expected
        np.testing.assert_array_equal(
            reference.accuracy_matrix.matrix, fanned.accuracy_matrix.matrix
        )


class _ZeroingFinetune(FinetuneMethod):
    """Finetune whose ``on_task_end`` replaces the server's global state — the
    hook contract permits it.  Module-level so workers unpickle it by
    reference."""

    def on_task_end(self, task_id, server):
        super().on_task_end(task_id, server)
        server.global_state = {
            key: np.zeros_like(value) for key, value in server.global_state.items()
        }


class _PayloadReassigningFinetune(FinetuneMethod):
    """Finetune whose ``on_task_end`` assigns an equal copy of the broadcast
    payload: a new model version by rule 4, though no value changed."""

    def on_task_end(self, task_id, server):
        super().on_task_end(task_id, server)
        server.broadcast_payload = dict(server.broadcast_payload)


class _CountingBackend(SerialEvalBackend):
    def __init__(self):
        self.calls = 0

    def evaluate(self, *args, **kwargs):
        self.calls += 1
        return super().evaluate(*args, **kwargs)


class TestBroadcastFreshness:
    def test_assigning_global_state_retires_the_cached_handle(self, tiny_backbone_config):
        method = build_method("finetune", tiny_backbone_config, num_tasks=1)
        server = FederatedServer(method.build_model())
        handle = server.broadcast_view()
        assert server.broadcast_view() is handle  # cached while the state stands
        server.global_state = {
            key: np.zeros_like(value) for key, value in server.global_state.items()
        }
        fresh = server.broadcast_view()
        assert fresh is not handle
        assert all((np.asarray(value) == 0).all() for value in fresh.state.values())

    def test_on_task_end_state_mutation_is_visible_to_parallel_eval(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """Regression: a mid-task eval snapshot caches the server's broadcast
        handle; an on_task_end hook that replaces global_state must still be
        scored by the after-task evaluation (and the next task's rounds), not
        the stale cached state — serial and parallel eval must agree, and the
        post-run broadcast view must reflect the hook's replacement."""
        config = replace(
            tiny_federated_config, rounds_per_task=2, eval_every=1, eval_batch_size=4
        )

        def run(eval_executor):
            scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
            base = build_method("finetune", tiny_backbone_config, num_tasks=2)
            method = _ZeroingFinetune(base.config)
            simulation = FederatedDomainIncrementalSimulation(
                scenario,
                method,
                replace(config, eval_executor=eval_executor, num_workers=2),
            )
            return simulation, simulation.run()

        serial_sim, serial = run("serial")
        parallel_sim, parallel = run("parallel")
        np.testing.assert_array_equal(serial.metrics.matrix, parallel.metrics.matrix)
        assert serial.per_task_accuracy == parallel.per_task_accuracy
        assert serial.round_eval_history == parallel.round_eval_history
        # The deterministic mechanism check: the final after-task evaluation
        # cached a broadcast of the *zeroed* state, not the stale pre-hook
        # trained weights.
        for simulation in (serial_sim, parallel_sim):
            state = simulation.server.broadcast_view().state
            assert all((np.asarray(value) == 0).all() for value in state.values())

    def _counted_run(self, tiny_spec, tiny_backbone_config, tiny_federated_config, method_class):
        config = replace(
            tiny_federated_config, rounds_per_task=2, eval_every=1, eval_batch_size=4
        )
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        base = build_method("finetune", tiny_backbone_config, num_tasks=2)
        simulation = FederatedDomainIncrementalSimulation(
            scenario, method_class(base.config), config
        )
        backend = simulation.evaluator.backend = _CountingBackend()
        return simulation, simulation.run(), backend.calls

    @pytest.mark.parametrize(
        "method_class, eval_calls",
        [(FinetuneMethod, 4), (_ZeroingFinetune, 6), (_PayloadReassigningFinetune, 6)],
    )
    def test_after_task_eval_reuses_the_snapshot_only_while_the_handle_stands(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, method_class, eval_calls
    ):
        """2 tasks x 2 rounds, eval_every=1: the after-task evaluation reuses
        the final round's snapshot (4 scorings) unless on_task_end assigned
        either piece of server state — even an equal payload — which makes a
        new handle that is scored (6)."""
        _, result, calls = self._counted_run(
            tiny_spec, tiny_backbone_config, tiny_federated_config, method_class
        )
        assert calls == eval_calls
        assert len(result.round_eval_history) == 4
        if method_class is not _ZeroingFinetune:
            assert result.per_task_accuracy[-1] == result.round_eval_history[-1]["accuracies"]

    def test_state_assigning_on_task_end_is_scored_fresh(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """The zeroing hook's after-task row is the zeroed state's accuracy,
        exactly what an evaluator that never saw the run reports."""
        from repro.continual.evaluator import GlobalEvaluator

        simulation, result, _ = self._counted_run(
            tiny_spec, tiny_backbone_config, tiny_federated_config, _ZeroingFinetune
        )
        model = simulation.method.build_model()
        model.load_state_dict(simulation.server.global_state)
        fresh = GlobalEvaluator(
            simulation.scenario, batch_size=4, predict_fn=simulation.method.predict_logits
        ).evaluate_seen(model, 1)
        assert result.per_task_accuracy[-1] == fresh


class TestEvalIPC:
    def test_test_slices_cross_ipc_on_every_call(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """2 tasks x 2 rounds with eval_every=1: 4 pooled eval calls (each
        end-of-task evaluation reuses its final round's snapshot).  Every call
        carries the slices it scores, so both calls of a task ship the same
        shard bytes, and task 1's calls, scoring both tasks' slices, ship more."""
        config = replace(
            tiny_federated_config,
            rounds_per_task=2,
            eval_executor="parallel",
            num_workers=2,
            eval_batch_size=4,
            eval_every=1,
        )
        simulation, _ = _run_simulation(tiny_spec, tiny_backbone_config, config)
        log = simulation.eval_executor.eval_ipc_log
        assert len(log) == 4
        assert all(entry.shard_bytes > 0 for entry in log)
        assert log[0].shard_bytes == log[1].shard_bytes < log[2].shard_bytes == log[3].shard_bytes
        assert log[0].num_jobs == log[1].num_jobs < log[2].num_jobs == log[3].num_jobs


class TestEvalEvery:
    def test_round_eval_history_shape(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = replace(
            tiny_federated_config, rounds_per_task=2, eval_every=1, eval_batch_size=4
        )
        _, result = _run_simulation(tiny_spec, tiny_backbone_config, config)
        # 2 tasks x 2 rounds, eval_every=1 -> one snapshot per round.
        assert len(result.round_eval_history) == 4
        for entry in result.round_eval_history:
            assert set(entry) == {"task_id", "round_index", "accuracies", "sim_time"}
            # Every seen domain (task_id + 1 of them) is scored.
            assert len(entry["accuracies"]) == entry["task_id"] + 1
        assert [e["task_id"] for e in result.round_eval_history] == [0, 0, 1, 1]
        assert [e["round_index"] for e in result.round_eval_history] == [0, 1, 0, 1]

    def test_eval_every_k_skips_rounds(self, tiny_spec, tiny_backbone_config, tiny_federated_config):
        config = replace(
            tiny_federated_config, rounds_per_task=2, eval_every=2, eval_batch_size=4
        )
        _, result = _run_simulation(tiny_spec, tiny_backbone_config, config)
        assert [e["round_index"] for e in result.round_eval_history] == [1, 1]

    @pytest.mark.parametrize("mode", ["sync", "buffered"])
    @pytest.mark.parametrize(
        "method_name",
        # refil_gpl_dpcl is RefFiL with use_cdap=False: its inference reads
        # the method's prompt store, not only the model.
        ["refil", "refil_gpl_dpcl", "fedl2p", "feddualprompt"],
    )
    def test_mid_task_eval_does_not_perturb_training(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, method_name, mode
    ):
        """Evaluation is read-only and reusing the final snapshot as the
        after-task evaluation moves no number: a run with eval_every on must
        produce the exact same trained model, losses and accuracy matrix as
        one without."""
        config = replace(tiny_federated_config, rounds_per_task=2, eval_batch_size=4, mode=mode)
        _, plain = _run_simulation(tiny_spec, tiny_backbone_config, config, method_name)
        _, snapshotted = _run_simulation(
            tiny_spec, tiny_backbone_config, replace(config, eval_every=1), method_name
        )
        assert plain.metrics.matrix.tobytes() == snapshotted.metrics.matrix.tobytes()
        assert plain.per_task_accuracy == snapshotted.per_task_accuracy
        assert plain.round_losses == snapshotted.round_losses
        assert plain.round_eval_history == []
        last = snapshotted.round_eval_history[-1]
        assert last["accuracies"] == snapshotted.per_task_accuracy[-1]

    def test_serial_and_parallel_round_eval_history_identical(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = replace(
            tiny_federated_config, rounds_per_task=2, eval_every=1, eval_batch_size=4
        )
        _, serial = _run_simulation(tiny_spec, tiny_backbone_config, config)
        _, parallel = _run_simulation(
            tiny_spec,
            tiny_backbone_config,
            replace(config, eval_executor="parallel", num_workers=2),
        )
        assert serial.round_eval_history == parallel.round_eval_history

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(eval_executor="threads")
        with pytest.raises(ValueError):
            FederatedConfig(eval_every=-1)
        assert FederatedConfig(eval_executor="parallel", eval_every=3).eval_every == 3


class TestMeanUpdateMetrics:
    def _update(self, client_id, metrics):
        return ClientUpdate(
            client_id=client_id, state_dict={}, num_samples=4, metrics=metrics
        )

    def test_first_update_without_metrics_does_not_erase_round(self):
        """Regression: the round's Table VII breakdown used to vanish whenever
        the *first* selected client reported no metrics."""
        updates = [
            self._update(0, {}),
            self._update(1, {"loss_ce": 1.0, "loss_total": 1.5}),
            self._update(2, {"loss_ce": 3.0, "loss_total": 3.5}),
        ]
        means = _mean_update_metrics(updates)
        assert means == {"loss_ce": 2.0, "loss_total": 2.5}

    def test_partial_reporters_average_over_reporting_clients(self):
        updates = [
            self._update(0, {"loss_ce": 1.0}),
            self._update(1, {"loss_ce": 2.0, "loss_gpl": 0.5}),
        ]
        means = _mean_update_metrics(updates)
        assert means == {"loss_ce": 1.5, "loss_gpl": 0.5}

    def test_full_reporters_match_plain_mean(self):
        updates = [
            self._update(0, {"loss_ce": 1.0, "loss_total": 2.0}),
            self._update(1, {"loss_ce": 3.0, "loss_total": 4.0}),
        ]
        assert _mean_update_metrics(updates) == {
            "loss_ce": float(np.mean([1.0, 3.0])),
            "loss_total": float(np.mean([2.0, 4.0])),
        }

    def test_no_metrics_at_all_is_empty(self):
        assert _mean_update_metrics([self._update(0, {}), self._update(1, {})]) == {}
        assert _mean_update_metrics([]) == {}
