"""Model evaluation over task streams.

The paper's protocol (Sec. V-A) evaluates the global model on *every* seen
domain after each learning step, which makes evaluation an O(T²) workload over
a run — and O(T·R) once mid-task evaluation is enabled.  The scoring loop is
therefore split into composable pieces:

* :func:`count_correct` — the single-dataset forward pass, returning the
  *integer* number of correct predictions.  Integer counts are the unit of
  work of the parallel evaluation plane: counts computed over batch-aligned
  slices of a test set sum to exactly the count over the whole set, so a
  fanned-out evaluation reproduces the serial accuracy bit-for-bit.
* :class:`EvalBackend` — the strategy for scoring a suite of (task, test set)
  pairs.  :class:`SerialEvalBackend` loops in-process (the historical
  behaviour); :class:`repro.federated.execution.ParallelEvalBackend` fans the
  suite over the round engine's pinned worker pool.
* :class:`GlobalEvaluator` — owns the accuracy matrix and delegates the
  actual scoring to its backend.  It scores each model version once per
  seen-task set: given the version token of its previous scoring (the
  simulation passes the server's broadcast handle) and the same task, it
  reuses those accuracies, so an after-task evaluation that follows a
  final-round ``eval_every`` snapshot of unchanged server state is free.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.continual.metrics import AccuracyMatrix
from repro.continual.scenario import DomainIncrementalScenario, Task
from repro.datasets.base import ArrayDataset, DataLoader
from repro.nn.module import Module

PredictFn = Callable[[Module, Tensor], Tensor]


def count_correct(
    model: Module,
    dataset: ArrayDataset,
    batch_size: int = 64,
    predict_fn: Optional[PredictFn] = None,
) -> int:
    """Number of top-1 correct predictions of ``model`` on ``dataset``.

    ``predict_fn`` lets prompt-based methods inject their inference-time
    prompts; the default simply calls the model on the images.

    The model is put in eval mode for the forward passes and every submodule
    is restored to the exact mode it arrived in — callers that hold the whole
    model (or just a frozen submodule) in eval mode must not get dropout
    silently re-enabled behind their back.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    # Snapshot per-module flags rather than the root's alone: restoring via a
    # recursive model.train(root_mode) would flatten a submodule deliberately
    # held in a different mode (e.g. a frozen backbone kept in eval during
    # fine-tuning).
    modes = [(module, module.training) for _, module in model.named_modules()]
    model.eval()
    correct = 0
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    try:
        with no_grad():
            for images, labels in loader:
                logits = predict_fn(model, images) if predict_fn is not None else model(images)
                predictions = logits.data.argmax(axis=-1)
                correct += int((predictions == labels).sum())
    finally:
        for module, mode in modes:
            module.training = mode
    return correct


def evaluate_accuracy(
    model: Module,
    dataset: ArrayDataset,
    batch_size: int = 64,
    predict_fn: Optional[PredictFn] = None,
) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (see :func:`count_correct`)."""
    return count_correct(model, dataset, batch_size=batch_size, predict_fn=predict_fn) / len(
        dataset
    )


class EvalBackend:
    """Strategy for scoring the global model on a suite of test sets.

    ``pairs`` is a sequence of ``(task, dataset)`` where ``dataset`` is the
    task's test set, handed out by the scenario at the active compute dtype;
    the return value is one accuracy per pair, in order.  ``version`` is the
    evaluator's token for the state ``model`` holds (or ``None``); a backend
    that scores outside this process may ship it instead of ``model``.  Every
    backend must produce the same numbers bit-for-bit: the backend choice is
    a performance knob, never a results knob.
    """

    def evaluate(
        self,
        model: Module,
        pairs: Sequence[Tuple[Task, ArrayDataset]],
        batch_size: int,
        predict_fn: Optional[PredictFn] = None,
        version: Optional[object] = None,
    ) -> List[float]:
        raise NotImplementedError


class SerialEvalBackend(EvalBackend):
    """In-process sequential scoring — the historical single-threaded path."""

    def evaluate(
        self,
        model: Module,
        pairs: Sequence[Tuple[Task, ArrayDataset]],
        batch_size: int,
        predict_fn: Optional[PredictFn] = None,
        version: Optional[object] = None,
    ) -> List[float]:
        return [
            evaluate_accuracy(model, dataset, batch_size=batch_size, predict_fn=predict_fn)
            for _, dataset in pairs
        ]


class GlobalEvaluator:
    """Tracks the global model's accuracy matrix over a continual scenario.

    Scoring is delegated to ``backend`` (default: :class:`SerialEvalBackend`);
    see :class:`repro.federated.execution.ParallelEvalBackend` for the fanned
    variant riding the round engine's worker pool.

    Both entry points take ``version``, a weak-referenceable token for the
    state ``model`` holds: while a token lives, it must name one set of
    weights and one inference path.  The evaluator keeps the last scoring's
    ``(version, task_id, accuracies)``, holding the token weakly so it never
    keeps a model version alive; a call with that same token object and
    ``task_id`` reuses the accuracies without a forward pass.  ``None``
    always scores.
    """

    def __init__(
        self,
        scenario: DomainIncrementalScenario,
        batch_size: int = 64,
        predict_fn: Optional[PredictFn] = None,
        backend: Optional[EvalBackend] = None,
    ) -> None:
        self.scenario = scenario
        self.batch_size = batch_size
        self.predict_fn = predict_fn
        self.backend = backend if backend is not None else SerialEvalBackend()
        self.accuracy_matrix = AccuracyMatrix(scenario.num_tasks)
        self.per_task_history: List[Dict[str, float]] = []
        self._scored: Optional[Tuple[weakref.ref, int, List[Tuple[Task, float]]]] = None

    def _evaluate(
        self, model: Module, task_id: int, version: Optional[object]
    ) -> List[Tuple[Task, float]]:
        scored = self._scored
        if version is not None and scored is not None:
            ref, scored_task, results = scored
            if ref() is version and scored_task == task_id:
                return results
        seen = self.scenario.seen_tests(task_id)
        pairs = [(task, task.test) for task in seen]
        accuracies = self.backend.evaluate(
            model, pairs, self.batch_size, self.predict_fn, version
        )
        results = list(zip(seen, accuracies))
        self._scored = None if version is None else (weakref.ref(version), task_id, results)
        return results

    def evaluate_seen(
        self, model: Module, task_id: int, version: Optional[object] = None
    ) -> Dict[str, float]:
        """Score every seen task's test set without recording anything.

        This is the mid-task (``eval_every``) entry point: the accuracy matrix
        only admits one entry per (after_task, evaluated_task) pair, so
        intra-task snapshots are returned to the caller instead of recorded.
        """
        return {
            task.domain_name: accuracy
            for task, accuracy in self._evaluate(model, task_id, version)
        }

    def evaluate_after_task(
        self, model: Module, task_id: int, version: Optional[object] = None
    ) -> Dict[str, float]:
        """Evaluate on every seen task's test set and record the results.

        Returns a mapping from domain name to accuracy for logging.
        """
        results: Dict[str, float] = {}
        for task, accuracy in self._evaluate(model, task_id, version):
            self.accuracy_matrix.record(task_id, task.task_id, accuracy)
            results[task.domain_name] = accuracy
        self.per_task_history.append(results)
        return results

    def summary(self):
        return self.accuracy_matrix.summary()


__all__ = [
    "count_correct",
    "evaluate_accuracy",
    "EvalBackend",
    "SerialEvalBackend",
    "GlobalEvaluator",
]
