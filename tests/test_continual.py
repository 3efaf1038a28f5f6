"""Tests for the continual-learning scenario and the forgetting metrics."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.continual import (
    AccuracyMatrix,
    DomainIncrementalScenario,
    GlobalEvaluator,
    SerialEvalBackend,
    count_correct,
    evaluate_accuracy,
)
from repro.datasets import SyntheticDomainDataset
from repro.datasets.base import ArrayDataset
from repro.nn.linear import Linear
from repro.nn.module import Module


class TestAccuracyMatrix:
    def _filled(self):
        matrix = AccuracyMatrix(3)
        values = {
            (0, 0): 0.9,
            (1, 0): 0.6,
            (1, 1): 0.8,
            (2, 0): 0.5,
            (2, 1): 0.7,
            (2, 2): 0.9,
        }
        for (after, task), acc in values.items():
            matrix.record(after, task, acc)
        return matrix

    def test_step_average_accuracies(self):
        matrix = self._filled()
        steps = matrix.step_average_accuracies()
        assert steps[0] == pytest.approx(0.9)
        assert steps[1] == pytest.approx(0.7)
        assert steps[2] == pytest.approx(0.7)

    def test_average_and_last(self):
        matrix = self._filled()
        assert matrix.average_accuracy() == pytest.approx((0.9 + 0.7 + 0.7) / 3)
        assert matrix.last_accuracy() == pytest.approx(0.7)

    def test_forgetting_hand_computed(self):
        matrix = self._filled()
        # task0: best before final = max(0.9, 0.6) = 0.9, final 0.5 -> 0.4
        # task1: best before final = 0.8, final 0.7 -> 0.1
        assert matrix.forgetting() == pytest.approx((0.4 + 0.1) / 2)

    def test_backward_transfer_hand_computed(self):
        matrix = self._filled()
        # (0.5 - 0.9) and (0.7 - 0.8) -> mean -0.25
        assert matrix.backward_transfer() == pytest.approx(-0.25)

    def test_single_task_edge_case(self):
        matrix = AccuracyMatrix(1)
        matrix.record(0, 0, 0.8)
        assert matrix.forgetting() == 0.0
        assert matrix.backward_transfer() == 0.0
        assert matrix.average_accuracy() == pytest.approx(0.8)

    def test_validation(self):
        matrix = AccuracyMatrix(2)
        with pytest.raises(IndexError):
            matrix.record(0, 1, 0.5)  # cannot evaluate an unseen task
        with pytest.raises(IndexError):
            matrix.record(5, 0, 0.5)
        with pytest.raises(ValueError):
            matrix.record(0, 0, 50.0)  # must be a fraction
        with pytest.raises(ValueError):
            AccuracyMatrix(0)

    def test_is_complete(self):
        matrix = AccuracyMatrix(2)
        assert not matrix.is_complete()
        matrix.record(0, 0, 0.5)
        matrix.record(1, 0, 0.5)
        matrix.record(1, 1, 0.5)
        assert matrix.is_complete()

    def test_summary_percentages(self):
        summary = self._filled().summary()
        pct = summary.as_percentages()
        assert pct["avg"] == pytest.approx(100 * summary.average)
        assert pct["fgt"] == pytest.approx(summary.forgetting)
        assert len(summary.step_averages_pct()) == 3

    def test_no_forgetting_when_accuracy_retained(self):
        matrix = AccuracyMatrix(2)
        matrix.record(0, 0, 0.8)
        matrix.record(1, 0, 0.8)
        matrix.record(1, 1, 0.9)
        assert matrix.forgetting() == pytest.approx(0.0)
        assert matrix.backward_transfer() == pytest.approx(0.0)


class TestScenario:
    def test_tasks_follow_domain_order(self, tiny_spec):
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec))
        tasks = scenario.tasks()
        assert [t.domain_name for t in tasks] == list(tiny_spec.domains)
        assert all(len(t.train) == tiny_spec.train_per_domain for t in tasks)

    def test_num_tasks_truncation_and_validation(self, tiny_spec):
        dataset = SyntheticDomainDataset(tiny_spec)
        scenario = DomainIncrementalScenario(dataset, num_tasks=2)
        assert len(scenario) == 2
        with pytest.raises(ValueError):
            DomainIncrementalScenario(dataset, num_tasks=99)
        with pytest.raises(IndexError):
            scenario.task(5)

    def test_seen_tests(self, tiny_spec):
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec))
        seen = scenario.seen_tests(2)
        assert [t.task_id for t in seen] == [0, 1, 2]

    def test_seen_tests_rejects_out_of_range_ids(self, tiny_spec):
        """Out-of-range ids must raise like task() does, not silently clamp —
        a clamped suite evaluates the wrong tasks without any signal."""
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        assert [t.task_id for t in scenario.seen_tests(1)] == [0, 1]
        with pytest.raises(IndexError):
            scenario.seen_tests(2)
        with pytest.raises(IndexError):
            scenario.seen_tests(-1)


class _ConstantModel(Module):
    """Predicts a fixed class for every input; lets accuracy be computed analytically."""

    def __init__(self, num_classes: int, chosen: int):
        super().__init__()
        self.head = Linear(1, num_classes)
        self.num_classes = num_classes
        self.chosen = chosen

    def forward(self, images: Tensor) -> Tensor:
        batch = images.shape[0]
        logits = np.zeros((batch, self.num_classes))
        logits[:, self.chosen] = 10.0
        return Tensor(logits)


class _Version:
    """A model-version token, as the server's broadcast handle is one."""


class TestEvaluator:
    def test_constant_model_accuracy(self):
        labels = np.array([0, 0, 1, 2])
        data = ArrayDataset(np.zeros((4, 3, 4, 4)), labels)
        model = _ConstantModel(3, chosen=0)
        assert evaluate_accuracy(model, data) == pytest.approx(0.5)

    def test_empty_dataset_raises(self):
        model = _ConstantModel(3, chosen=0)
        with pytest.raises(ValueError):
            evaluate_accuracy(model, ArrayDataset(np.zeros((0, 3, 4, 4)), np.zeros(0, dtype=int)))

    def test_global_evaluator_fills_matrix(self, tiny_spec):
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        evaluator = GlobalEvaluator(scenario)
        model = _ConstantModel(tiny_spec.num_classes, chosen=1)
        evaluator.evaluate_after_task(model, 0)
        evaluator.evaluate_after_task(model, 1)
        summary = evaluator.summary()
        assert len(summary.step_averages) == 2
        assert 0.0 <= summary.average <= 1.0

    def test_evaluate_restores_prior_module_mode(self):
        """Regression: evaluation used to force model.train() on exit,
        re-enabling train-mode layers even for callers that held the model in eval
        mode.  The actual prior mode must be restored, recursively."""
        labels = np.array([0, 0, 1, 2])
        data = ArrayDataset(np.zeros((4, 3, 4, 4)), labels)
        model = _ConstantModel(3, chosen=0)
        model.child = Linear(2, 2)  # a submodule whose mode is tracked

        model.eval()
        evaluate_accuracy(model, data)
        assert not model.training and not model.child.training  # no leakage

        model.train()
        count_correct(model, data)
        assert model.training and model.child.training  # restored, not stuck in eval

        # Heterogeneous modes survive too: a submodule deliberately held in
        # eval (e.g. a frozen backbone) must not be flipped to train by a
        # recursive restore of the root's mode.
        model.train()
        model.child.eval()
        evaluate_accuracy(model, data)
        assert model.training and not model.child.training

    def test_mode_restored_even_when_predict_fn_raises(self):
        data = ArrayDataset(np.zeros((2, 3, 4, 4)), np.array([0, 1]))
        model = _ConstantModel(3, chosen=0)

        def boom(model, images):
            raise RuntimeError("inference failed")

        model.train()
        with pytest.raises(RuntimeError, match="inference failed"):
            count_correct(model, data, predict_fn=boom)
        assert model.training

    def test_default_backend_is_serial(self, tiny_spec):
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=1)
        assert isinstance(GlobalEvaluator(scenario).backend, SerialEvalBackend)

    def test_evaluate_seen_matches_after_task_without_recording(self, tiny_spec):
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        evaluator = GlobalEvaluator(scenario)
        model = _ConstantModel(tiny_spec.num_classes, chosen=1)
        snapshot = evaluator.evaluate_seen(model, 1)
        assert evaluator.per_task_history == []
        assert np.isnan(evaluator.accuracy_matrix.matrix).all()
        assert snapshot == evaluator.evaluate_after_task(model, 1)
        assert len(evaluator.per_task_history) == 1

    def test_scores_each_version_and_task_once(self, tiny_spec):
        """The same version token and task_id reuse the stored accuracies with
        no forward pass (the after-task call records them); a new token,
        another task_id or no token scores."""
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        forwards = []

        def predict(model, images):
            forwards.append(images.shape[0])
            return model(images)

        evaluator = GlobalEvaluator(scenario, predict_fn=predict)
        model = _ConstantModel(tiny_spec.num_classes, chosen=1)
        version = _Version()
        first = evaluator.evaluate_seen(model, 1, version)
        scored = len(forwards)
        assert scored > 0
        assert evaluator.evaluate_seen(model, 1, version) == first
        assert evaluator.evaluate_after_task(model, 1, version) == first
        assert len(forwards) == scored
        assert evaluator.per_task_history == [first]
        for call in (
            lambda: evaluator.evaluate_seen(model, 0, version),
            lambda: evaluator.evaluate_seen(model, 0, _Version()),
            lambda: evaluator.evaluate_seen(model, 0, None),
            lambda: evaluator.evaluate_seen(model, 0, None),
        ):
            before = len(forwards)
            call()
            assert len(forwards) > before
        # The token is held weakly: the evaluator never keeps a version alive.
        evaluator.evaluate_seen(model, 1, version)
        token = weakref.ref(version)
        del version
        gc.collect()
        assert token() is None

    def test_predict_fn_hook_is_used(self, tiny_spec):
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=1)
        calls = []

        def predict(model, images):
            calls.append(images.shape[0])
            return model(images)

        evaluator = GlobalEvaluator(scenario, predict_fn=predict)
        evaluator.evaluate_after_task(_ConstantModel(tiny_spec.num_classes, 0), 0)
        assert sum(calls) == tiny_spec.test_per_domain
