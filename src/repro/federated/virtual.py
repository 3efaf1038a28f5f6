"""The client data plane: clients as lazy recipes, shards on demand.

Every simulation keeps its clients' training data here.  A client is a pure
``(seed, partition-spec, task, client id)`` recipe, and an actual
:class:`ArrayDataset` shard is materialized only when a selected client
trains, then held in a cache.

Two population modes share the plane:

* **Schedule mode** (``population=0``): the population is driven by the
  :class:`~repro.federated.increment.ClientIncrementSchedule`.  At each task
  boundary the plane draws the task's partition *indices* —
  ``spawn_rng(seed, "partition", task_id)`` over the assignment's takers —
  and records, per client, the tasks it took.  A New client holds its new
  shard; an In-between client concatenates its previous take's shard with
  the new one (paper Algorithm 1 line 17); an Old client keeps what it had.
  Materialization is ``subset`` per component, then concat.
  The cache holds the task's whole eligible set, so no shard is built twice
  within a task and none is evicted.

* **Fleet mode** (``population=N``): N virtual clients, all of them taking
  every task (a shared whole-domain Dirichlet partition is infeasible when
  the population dwarfs the domain).  Each client's per-task shard is its own
  quantity-shift draw from ``spawn_rng(seed, "vshard", task_id, client_id)``:
  a lognormal sample count (log-spread 1, the imbalance of the schedule
  partition's unit Dirichlet concentration) and a uniform index choice over the
  domain pool — clients share samples, the standard fleet-simulator design.
  Everything about a client is O(1): no per-client state exists until the
  client is selected, and none survives the cohort-sized LRU.

Checkpoints never see shards: the plane's bookkeeping is derived state,
rebuilt by the resume path's deterministic replay of task assignment.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.continual.scenario import Task
from repro.datasets.base import ArrayDataset
from repro.datasets.partition import partition_indices_for_clients
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientGroup, TaskAssignment
from repro.utils.rng import spawn_rng

#: Fleet-mode shard sizing: never below the schedule partitioner's
#: ``min_per_client``, base size one eighth of the domain.
_FLEET_MIN_SAMPLES = 2
_FLEET_BASE_DIVISOR = 8


class VirtualClientPlane:
    """Owns the population's recipes and the materialized shards."""

    def __init__(self, config: FederatedConfig) -> None:
        self.config = config
        self.fleet = config.population > 0
        #: Domain training sets by task id (references into the scenario —
        #: the scenario already holds them; the plane adds no copies).
        self._task_train: Dict[int, ArrayDataset] = {}
        #: Schedule mode: the shared partition's index array per (task,
        #: taker) — one int per sample, never image data.
        self._indices: Dict[Tuple[int, int], np.ndarray] = {}
        #: Schedule mode: the tasks each client took since it last joined as
        #: New, oldest first; its last two make up its training data.
        self._held: Dict[int, List[int]] = {}
        self._assignment: Optional[TaskAssignment] = None
        self._current_task = -1
        # Materialization is a pure function, so eviction is always safe (a
        # miss just recomputes).  Fleet mode keeps a few cohorts deep, so sync
        # rounds, async in-flight dispatches and the buffered flush window all
        # hit; schedule mode resizes to the eligible set at every task.
        self._cache: "OrderedDict[Tuple[int, Tuple[int, ...]], ArrayDataset]" = OrderedDict()
        self._cache_size = max(16, 4 * config.clients_per_round, 2 * config.buffer_size)

    # ------------------------------------------------------------------ #
    # Task boundaries
    # ------------------------------------------------------------------ #
    def begin_task(self, task: Task, assignment: TaskAssignment) -> None:
        """Advance the plane's bookkeeping for one task (replayed on resume).

        Schedule mode draws the task's partition over
        ``assignment.clients_taking_new_domain`` and keeps only the index
        arrays.  Fleet mode ignores ``assignment`` and records nothing: every
        client's recipe is already a pure function of ``(seed, task_id,
        client_id)``.
        """
        self._current_task = task.task_id
        self._task_train[task.task_id] = task.train
        if self.fleet:
            return
        self._assignment = assignment
        rng = spawn_rng(self.config.seed, "partition", task.task_id)
        index_map = partition_indices_for_clients(
            task.train.labels,
            assignment.clients_taking_new_domain,
            rng,
        )
        for client_id, indices in index_map.items():
            self._indices[(task.task_id, client_id)] = indices
        for client_id in assignment.active_clients:
            group = assignment.group_of(client_id)
            if group is ClientGroup.NEW:
                self._held[client_id] = [task.task_id]
            elif group is ClientGroup.IN_BETWEEN:
                self._held[client_id] = self._held.get(client_id, []) + [task.task_id]
            # ClientGroup.OLD keeps training on its existing recipe.
        # Hold every eligible client's shard for the whole task and drop the
        # ones this task superseded: at most one shard per eligible client.
        current = {(client_id, self._components(client_id)) for client_id in self.eligible()}
        for key in set(self._cache) - current:
            del self._cache[key]
        self._cache_size = len(current)

    # ------------------------------------------------------------------ #
    # Recipes
    # ------------------------------------------------------------------ #
    def _components(self, client_id: int) -> Tuple[int, ...]:
        """The tasks whose shards concatenate into the client's data, oldest first."""
        if self.fleet:
            task_id = self._current_task
            return (0,) if task_id == 0 else (task_id - 1, task_id)
        return tuple(self._held[client_id][-2:])

    def eligible(self) -> List[int]:
        """Schedule mode: the task's active clients that hold data, in schedule order.

        Every client that ever took a task holds ≥ ``min_per_client`` samples
        (the partition invariant), so "has a take record" is "has a non-empty
        shard".
        """
        return [
            client_id for client_id in self._assignment.active_clients if client_id in self._held
        ]

    def group_for(self, client_id: int) -> ClientGroup:
        """The schedule's group, or fleet mode's NEW on task 0 and IN_BETWEEN after."""
        if self.fleet:
            return ClientGroup.NEW if self._current_task == 0 else ClientGroup.IN_BETWEEN
        return self._assignment.group_of(client_id)

    def domains_for(self, client_id: int) -> Tuple[int, ...]:
        if self.fleet:
            return tuple(range(self._current_task + 1))
        return tuple(self._held.get(client_id, ()))

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #
    def materialize(self, client_id: int) -> ArrayDataset:
        """The client's current training shard, built on demand and cached.

        The domain sets arrive at the run's compute dtype (the scenario's
        dataset casts each split once), so a shard is rows of them,
        concatenated oldest first.
        """
        key = (client_id, self._components(client_id))
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        parts = [self._single_shard(task_id, client_id) for task_id in key[1]]
        shard = parts[0] if len(parts) == 1 else ArrayDataset.concatenate(tuple(parts))
        self._cache[key] = shard
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return shard

    def _single_shard(self, task_id: int, client_id: int) -> ArrayDataset:
        domain = self._task_train[task_id]
        if self.fleet:
            indices = self._fleet_indices(task_id, client_id, len(domain))
        else:
            indices = self._indices[(task_id, client_id)]
        return domain.subset(indices)

    def _fleet_indices(self, task_id: int, client_id: int, domain_size: int) -> np.ndarray:
        """Fleet mode's per-client quantity-shift draw; O(domain), O(1) in N."""
        rng = spawn_rng(self.config.seed, "vshard", task_id, client_id)
        base = max(_FLEET_MIN_SAMPLES, domain_size // _FLEET_BASE_DIVISOR)
        size = int(np.clip(
            int(round(base * rng.lognormal(0.0, 1.0))),
            _FLEET_MIN_SAMPLES,
            domain_size,
        ))
        return np.sort(rng.choice(domain_size, size=size, replace=False)).astype(np.int64)


__all__ = ["VirtualClientPlane"]
