"""Client increment strategy: Old / In-between / New participant groups.

Paper Sec. II ("Client increment strategy"): participants are divided into
three dynamic groups for each incremental task --

* ``Uo`` (*Old*): clients that keep training only on data from past domains,
* ``Ub`` (*In-between*): clients that transition to the new domain while still
  holding their previous domain's data (they train on the concatenation,
  Algorithm 1 line 17),
* ``Un`` (*New*): clients that join the federation at this task and only ever
  see the new domain.

At every task transition a configurable fraction (80% in the paper's default
setup) of the existing clients move to the new domain (becoming ``Ub``) and a
fixed number of brand-new clients join (``Un``); the rest stay on their old
data (``Uo``).  As tasks progress the federation therefore grows, which is the
"gradual transition" the paper contrasts with the cliff-style task switches of
prior FCL work (Fig. 1a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.rng import spawn_rng


class ClientGroup(Enum):
    """Which of the paper's three participant groups a client belongs to for a task."""

    OLD = "old"
    IN_BETWEEN = "in_between"
    NEW = "new"


@dataclass(frozen=True)
class ClientIncrementConfig:
    """Static description of the client population dynamics.

    Attributes
    ----------
    initial_clients:
        Number of clients present for the first task.
    increment_per_task:
        Number of brand-new clients added at every subsequent task.
    transfer_fraction:
        Fraction of existing clients that transition to each new task's domain
        (the paper's "80% of the M clients from task t transition").
    seed:
        Seed for the (deterministic) choice of which clients transition.
    """

    initial_clients: int = 10
    increment_per_task: int = 2
    transfer_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_clients < 1:
            raise ValueError("initial_clients must be at least 1")
        if self.increment_per_task < 0:
            raise ValueError("increment_per_task cannot be negative")
        if not 0.0 <= self.transfer_fraction <= 1.0:
            raise ValueError("transfer_fraction must be in [0, 1]")


@dataclass
class TaskAssignment:
    """Group membership of every active client for one task."""

    task_id: int
    groups: Dict[int, ClientGroup] = field(default_factory=dict)

    @property
    def active_clients(self) -> List[int]:
        return sorted(self.groups)

    def clients_in(self, group: ClientGroup) -> List[int]:
        return sorted(cid for cid, g in self.groups.items() if g is group)

    @property
    def new_clients(self) -> List[int]:
        return self.clients_in(ClientGroup.NEW)

    @property
    def in_between_clients(self) -> List[int]:
        return self.clients_in(ClientGroup.IN_BETWEEN)

    @property
    def old_clients(self) -> List[int]:
        return self.clients_in(ClientGroup.OLD)

    @property
    def clients_taking_new_domain(self) -> List[int]:
        """Clients that receive a shard of the new task's domain (Ub plus Un)."""
        return sorted(set(self.new_clients) | set(self.in_between_clients))

    def group_of(self, client_id: int) -> ClientGroup:
        return self.groups[client_id]


class ClientIncrementSchedule:
    """Generates the per-task group assignments deterministically.

    For the first task every client is *New* (the federation is bootstrapping).
    For each later task, ``transfer_fraction`` of the previously active clients
    become *In-between*, the rest become *Old*, and ``increment_per_task``
    brand-new client ids are appended as *New*.
    """

    def __init__(self, config: ClientIncrementConfig) -> None:
        self.config = config
        self._assignments: Dict[int, TaskAssignment] = {}
        self._next_client_id = 0

    def _new_client_ids(self, count: int) -> List[int]:
        ids = list(range(self._next_client_id, self._next_client_id + count))
        self._next_client_id += count
        return ids

    def assignment_for_task(self, task_id: int) -> TaskAssignment:
        """Return (building it if necessary) the assignment for ``task_id``.

        Assignments must be requested in task order; requesting task ``t``
        materialises all assignments up to ``t``.
        """
        if task_id < 0:
            raise IndexError("task_id must be non-negative")
        for t in range(task_id + 1):
            if t not in self._assignments:
                self._assignments[t] = self._build_assignment(t)
        return self._assignments[task_id]

    def _build_assignment(self, task_id: int) -> TaskAssignment:
        if task_id == 0:
            ids = self._new_client_ids(self.config.initial_clients)
            return TaskAssignment(task_id=0, groups={cid: ClientGroup.NEW for cid in ids})
        previous = self._assignments[task_id - 1]
        existing = previous.active_clients
        rng = spawn_rng(self.config.seed, "increment", task_id)
        num_transfer = int(round(self.config.transfer_fraction * len(existing)))
        num_transfer = min(num_transfer, len(existing))
        transfer_ids = set(
            rng.choice(existing, size=num_transfer, replace=False).tolist()
        ) if num_transfer > 0 else set()
        groups: Dict[int, ClientGroup] = {}
        for client_id in existing:
            groups[client_id] = (
                ClientGroup.IN_BETWEEN if client_id in transfer_ids else ClientGroup.OLD
            )
        for client_id in self._new_client_ids(self.config.increment_per_task):
            groups[client_id] = ClientGroup.NEW
        return TaskAssignment(task_id=task_id, groups=groups)

    def schedule_trace(self, num_tasks: int) -> List[Dict[str, int]]:
        """Per-task group sizes; used by the Fig. 1 increment-schedule bench."""
        trace = []
        for task_id in range(num_tasks):
            assignment = self.assignment_for_task(task_id)
            trace.append(
                {
                    "task": task_id,
                    "old": len(assignment.old_clients),
                    "in_between": len(assignment.in_between_clients),
                    "new": len(assignment.new_clients),
                    "total": len(assignment.active_clients),
                }
            )
        return trace


__all__ = ["ClientGroup", "ClientIncrementConfig", "TaskAssignment", "ClientIncrementSchedule"]
