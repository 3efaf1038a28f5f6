"""Domain-incremental task streams.

In domain-incremental learning (paper Sec. II) every task shares the same
label space but draws inputs from a new domain.  A
:class:`DomainIncrementalScenario` turns a multi-domain dataset into an
ordered sequence of :class:`Task` objects, one per domain, each carrying that
domain's train and test splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.datasets.base import ArrayDataset


@dataclass(frozen=True)
class Task:
    """One incremental task: a domain with its train and test data."""

    task_id: int
    domain_name: str
    train: ArrayDataset
    test: ArrayDataset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task(id={self.task_id}, domain={self.domain_name!r}, "
            f"train={len(self.train)}, test={len(self.test)})"
        )


class DomainIncrementalScenario:
    """Sequence of domain tasks over a multi-domain dataset.

    Parameters
    ----------
    dataset:
        Any object exposing ``domains``, ``num_classes``, ``train(i)`` and
        ``test(i)`` -- i.e. a :class:`repro.datasets.SyntheticDomainDataset`,
        in whatever domain order it carries.
    num_tasks:
        Optionally truncate the stream to the first ``num_tasks`` domains
        (used by the tiny test presets).
    """

    def __init__(self, dataset, num_tasks: Optional[int] = None) -> None:
        self.dataset = dataset
        total = len(dataset.domains)
        if num_tasks is not None:
            if not 1 <= num_tasks <= total:
                raise ValueError(f"num_tasks must be in [1, {total}], got {num_tasks}")
            total = num_tasks
        self._num_tasks = total

    @property
    def num_tasks(self) -> int:
        return self._num_tasks

    @property
    def num_classes(self) -> int:
        return self.dataset.num_classes

    @property
    def domain_names(self) -> Sequence[str]:
        return tuple(self.dataset.domains[: self._num_tasks])

    def task(self, task_id: int) -> Task:
        """Build the task with the given zero-based id."""
        if not 0 <= task_id < self._num_tasks:
            raise IndexError(f"task_id {task_id} out of range [0, {self._num_tasks})")
        return Task(
            task_id=task_id,
            domain_name=self.dataset.domains[task_id],
            train=self.dataset.train(task_id),
            test=self.dataset.test(task_id),
        )

    def tasks(self) -> List[Task]:
        return [self.task(i) for i in range(self._num_tasks)]

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks())

    def __len__(self) -> int:
        return self._num_tasks

    def seen_tests(self, up_to_task: int) -> List[Task]:
        """Tasks 0..up_to_task inclusive (their test sets are the evaluation suite).

        Out-of-range ids raise :class:`IndexError` exactly like :meth:`task`;
        silently clamping would let a caller bug evaluate the wrong suite
        without any signal.
        """
        if not 0 <= up_to_task < self._num_tasks:
            raise IndexError(
                f"up_to_task {up_to_task} out of range [0, {self._num_tasks})"
            )
        return [self.task(i) for i in range(up_to_task + 1)]


__all__ = ["Task", "DomainIncrementalScenario"]
