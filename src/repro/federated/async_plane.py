"""Event-driven asynchronous federation: the temporal plane's round regimes.

The synchronous loop is a barrier: a round ends when its *slowest* selected
client finishes, and every client trains from the same global version.  Real
cross-device federations (the setting both the source paper's incremental
clients and rehearsal-free FCL work like Fed-CPrompt target) are governed by
stragglers, churn and staleness instead.  This module runs the same local
updates — through the same executor, transport and method hooks — under a
deterministic discrete-event scheduler (:mod:`repro.federated.clock`), in
two asynchronous regimes next to synchronous FedAvg:

* ``mode="async"`` — FedAsync (Xie et al., 2019): each arrival is applied
  the moment it lands on the simulated clock, blended into the global model
  at ``mixing = ASYNC_MIXING * (1 + staleness)^(-STALENESS_DECAY)`` where
  staleness counts global-model versions between the client's dispatch and
  its arrival.  The application runs through
  :meth:`~repro.federated.method.FederatedMethod.apply_async_update`, so
  method payload machinery (prompt clustering, Fisher merges) sees every
  arrival.
* ``mode="buffered"`` — FedBuff (Nguyen et al., 2022): arrivals accumulate
  in a buffer that flushes through the method's own ``aggregate`` hook every
  ``buffer_size`` arrivals (and once more at task end if a partial buffer
  remains), with each update's FedAvg weight scaled by its flush-time
  staleness discount via :meth:`FederatedServer.aggregation_scale`.

Both regimes dispatch ``clients_per_round`` clients concurrently and train
exactly ``rounds_per_task * clients_per_round`` local updates per task — the
same compute volume as the synchronous loop, so regimes are compared at
equal work and differ only in *when* updates are applied and how stale they
are when they land.

Execution order vs. event order: a client's local update is a pure function
of the broadcast it was dispatched with, so the *compute* runs eagerly at
dispatch time (on whichever executor is configured — the pinned worker pool
keeps absorbing the training), while the *application* of its result waits
for the arrival event.  The scheduler decides ordering and staleness; the
pool does the work.  Every delay in the event queue comes from the
deterministic cost model (measured batches x steps at the device's speed,
measured wire-frame bytes over its link), so the full event trace — and
therefore the trained model — is a pure function of the run seed.

Offline handling: dispatch candidates are availability-filtered through
:func:`~repro.federated.sampling.sample_clients`; a probe where every
candidate is offline schedules an idle retry tick instead of silently
selecting an offline device.  A task whose every eligible client churned out
trains nothing (the run continues — evaluation still measures the model);
remaining dispatch budget is likewise abandoned when only churned-out
devices are left.
"""

from __future__ import annotations

import bisect
from typing import List, Set, Tuple

from repro.continual.scenario import Task
from repro.federated.aggregation import staleness_weight
from repro.federated.communication import ClientUpdate
from repro.federated.sampling import (
    NoAvailableClientsError,
    sample_clients,
    sample_clients_lazy,
)
from repro.utils.logging_utils import get_logger
from repro.utils.rng import spawn_rng

logger = get_logger(__name__)

#: FedAsync's base mixing rate: the fraction of a zero-staleness arrival
#: blended into the global model.  Staleness discounts multiply it down.
ASYNC_MIXING = 0.5

#: Exponent of the polynomial staleness discount ``(1 + staleness)^(-a)``
#: applied to async arrivals and buffered flush weights.
STALENESS_DECAY = 0.5

#: Hard cap on dispatch probes per task (offline retries included) — a
#: deterministic backstop far above what any seeded availability trace needs.
_MAX_PROBES_PER_TASK = 100_000


class TemporalPlaneRunner:
    """Runs one task of a simulation in ``mode="async"`` or ``"buffered"``.

    Owned by a :class:`~repro.federated.simulation.
    FederatedDomainIncrementalSimulation`, whose clock, executor, transport,
    server, evaluator and result accumulators it drives; the simulation's
    synchronous machinery (task data assignment, after-task evaluation,
    lifecycle hooks) stays in charge around it.
    """

    def __init__(self, simulation) -> None:
        self.sim = simulation

    # ------------------------------------------------------------------ #
    # One task
    # ------------------------------------------------------------------ #
    def run_task(self, task: Task) -> None:
        sim = self.sim
        config = sim.config
        self._task = task
        # Fleet mode: the population is never enumerated.  Eligibility, churn
        # and availability all become lazy per-probe predicates of the
        # candidate's id; the schedule plane is bypassed entirely.
        self._fleet = sim.virtual.fleet
        self._eligible = None if self._fleet else sim.eligible_clients(task)
        self._budget = config.rounds_per_task * config.clients_per_round
        self._buffer_k = config.buffer_size or config.clients_per_round
        self._dispatched = 0
        self._probe = 0
        self._aggregations = 0
        self._abandoned = False
        self._last_cohort = -1
        self._in_flight: Set[int] = set()
        #: Clients that crashed mid-update and are rebooting: out of
        #: ``_present`` until their rejoin event fires.  While any client is
        #: rebooting the budget is never abandoned — its rejoin will free
        #: dispatch capacity again.
        self._rebooting: Set[int] = set()
        #: Buffered mode's pending arrivals: (update, global version at dispatch).
        self._buffer: List[Tuple[ClientUpdate, int]] = []

        if self._fleet:
            # No materialized presence list under a virtual population: churn
            # is folded into the per-probe predicate instead (still the same
            # once-per-(client, task) draw — ``in_task`` is a pure function).
            self._present = None
            concurrency = min(config.clients_per_round, config.population)
        else:
            # Churn is constant within a task, so the surviving set is computed
            # once here; per-probe filtering below only draws availability.
            self._present = [
                client_id
                for client_id in self._eligible
                if sim.profile_for(client_id).in_task(config.seed, task.task_id)
            ]
            if not self._present:
                # Every eligible device churned out for this whole task: nothing
                # trains, the run continues (evaluation still measures the model).
                sim.log_event("task_offline", task_id=task.task_id, eligible=len(self._eligible))
                return
            concurrency = min(config.clients_per_round, len(self._eligible))
        for _ in range(concurrency):
            self._try_dispatch()

        clock = sim.clock
        while not clock.empty:
            event = clock.pop()
            if event.kind == "retry":
                self._try_dispatch()
                continue
            if event.kind == "client_crash":
                self._on_crash(event)
                continue
            if event.kind == "rejoin":
                self._on_rejoin(event)
                continue
            self._on_arrival(event)
            self._try_dispatch()

        if self._buffer:
            # A partial buffer at task end still flushes: those clients
            # trained, and the next task must not inherit unapplied work.
            self._flush_buffer()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _try_dispatch(self) -> None:
        sim = self.sim
        config = sim.config
        task_id = self._task.task_id
        if self._dispatched >= self._budget or self._abandoned:
            return
        if not self._fleet:
            present = [cid for cid in self._present if cid not in self._in_flight]
            if not present:
                # Either every churn-surviving client is mid-training (an arrival
                # will re-try) or only churned-out devices remain with nothing in
                # flight — and nothing rebooting that could come back — to free
                # another; then the budget cannot be spent.
                if not self._in_flight and not self._rebooting:
                    self._abandoned = True
                    sim.log_event(
                        "budget_abandoned",
                        task_id=task_id,
                        remaining_budget=self._budget - self._dispatched,
                    )
                return
        slot = self._probe
        self._probe += 1
        if self._probe > _MAX_PROBES_PER_TASK:
            raise RuntimeError(
                f"temporal plane exceeded {_MAX_PROBES_PER_TASK} dispatch probes "
                f"for task {task_id}; the availability trace never yields an "
                "online client"
            )
        rng = spawn_rng(config.seed, "async-selection", task_id, slot)
        try:
            if self._fleet:
                # O(1)-per-candidate rejection sampling over the virtual
                # population: churn and availability are drawn lazily for the
                # probed ids only, never for the whole fleet.
                chosen = sample_clients_lazy(
                    config.population,
                    1,
                    rng,
                    available=lambda cid: sim.profile_for(cid).in_task(config.seed, task_id)
                    and sim.profile_for(cid).available_at(config.seed, task_id, slot),
                    exclude=self._in_flight | self._rebooting,
                )
            else:
                chosen = sample_clients(
                    present,
                    1,
                    rng,
                    # present already passed the per-task churn filter; only the
                    # per-slot availability component is drawn here.
                    available=lambda cid: sim.profile_for(cid).available_at(
                        config.seed, task_id, slot
                    ),
                )
        except NoAvailableClientsError:
            # Everyone is momentarily offline: the server backs off one idle
            # tick and probes again (a fresh slot, hence fresh availability
            # draws) instead of selecting an offline device.
            sim.clock.schedule(sim.cost_model.idle_seconds, "retry")
            return
        self._dispatch(chosen[0])

    def _dispatch(self, client_id: int) -> None:
        sim = self.sim
        config = sim.config
        task_id = self._task.task_id
        index = self._dispatched
        self._dispatched += 1
        version = sim.server.round_counter
        # The dispatch cohort is the async analogue of a round: both the hook
        # and the handle metadata see round indices in [0, rounds_per_task),
        # honouring the sync-mode contract (e.g. final-round schedules fire
        # on the task's last cohort, not at dispatch #rounds_per_task-1).
        # The hook fires once per cohort — "the start of every communication
        # round", not of every dispatch.  Every dispatch until the model next
        # advances (buffered mode between flushes) shares one broadcast
        # handle, and with it the transport's memoised downlink frame and
        # decode under every codec that reads no per-client reference.
        cohort = index // config.clients_per_round
        if cohort != self._last_cohort:
            self._last_cohort = cohort
            sim.method.on_round_start(task_id, cohort, sim.server)
        broadcast = sim.transport.broadcast_round(sim.server, [client_id], task_id, index)
        injector = sim.fault_injector
        if injector is not None and injector.client_crashes(task_id, index, client_id):
            # The client downloaded the broadcast, burned a fraction of its
            # training time, then died: no upload ever lands.  The transport's
            # pending round is consumed empty (the ledger records the paid
            # download), and the crash becomes a first-class event — the
            # scheduler takes the client offline until its rejoin fires.
            sim.transport.collect_updates([])
            self._in_flight.add(client_id)
            sim.clock.schedule(
                sim.crash_seconds(client_id), "client_crash", client_id, index=index
            )
            sim.log_event(
                "dispatch", task_id=task_id, client_id=client_id, index=index, version=version
            )
            return
        handle = sim.client_handle(client_id, task_id, cohort, "event", index)
        # The compute happens now (the local update is a pure function of the
        # dispatch-time broadcast); only its *application* waits for the
        # arrival event.
        update = sim.executor.run_client(sim.method, sim.model, broadcast, handle)
        delivered = sim.transport.collect_updates([update])
        duration = sim.client_seconds(client_id)
        self._in_flight.add(client_id)
        sim.clock.schedule(
            duration, "arrival", client_id, updates=delivered, version=version, index=index
        )
        sim.log_event(
            "dispatch", task_id=task_id, client_id=client_id, index=index, version=version
        )

    # ------------------------------------------------------------------ #
    # Crash / rejoin
    # ------------------------------------------------------------------ #
    def _on_crash(self, event) -> None:
        """A dispatched client died mid-update: take it offline, then reboot."""
        sim = self.sim
        client_id = event.client_id
        self._in_flight.discard(client_id)
        if self._present is not None:
            index = bisect.bisect_left(self._present, client_id)
            if index < len(self._present) and self._present[index] == client_id:
                del self._present[index]
        self._rebooting.add(client_id)
        sim.clock.schedule(sim.cost_model.idle_seconds, "rejoin", client_id)
        sim.log_event(
            "client_crash",
            task_id=self._task.task_id,
            client_id=client_id,
            index=event.data["index"],
        )
        self._try_dispatch()

    def _on_rejoin(self, event) -> None:
        """A crashed client finished rebooting and is dispatchable again."""
        sim = self.sim
        client_id = event.client_id
        self._rebooting.discard(client_id)
        if self._present is not None:
            bisect.insort(self._present, client_id)
        sim.log_event("client_rejoin", task_id=self._task.task_id, client_id=client_id)
        self._try_dispatch()

    # ------------------------------------------------------------------ #
    # Arrival / aggregation
    # ------------------------------------------------------------------ #
    def _on_arrival(self, event) -> None:
        sim = self.sim
        config = sim.config
        task_id = self._task.task_id
        self._in_flight.discard(event.client_id)
        version = event.data["version"]
        for update in event.data["updates"]:
            staleness = sim.server.round_counter - version
            if config.mode == "async":
                weight = staleness_weight(staleness, STALENESS_DECAY)
                mixing = ASYNC_MIXING * weight
                sim.method.apply_async_update(sim.server, update, mixing)
                self._aggregations += 1
                sim.record_aggregation(
                    "arrival",
                    task_id,
                    self._aggregations - 1,
                    [update],
                    client_id=update.client_id,
                    staleness=staleness,
                    mixing=mixing,
                )
            else:  # buffered
                self._buffer.append((update, version))
                sim.log_event(
                    "arrival",
                    task_id=task_id,
                    client_id=update.client_id,
                    staleness=staleness,
                    buffered=len(self._buffer),
                )
                if len(self._buffer) >= self._buffer_k:
                    self._flush_buffer()

    def _flush_buffer(self) -> None:
        sim = self.sim
        updates = [update for update, _ in self._buffer]
        scales = [
            staleness_weight(sim.server.round_counter - version, STALENESS_DECAY)
            for _, version in self._buffer
        ]
        self._buffer.clear()
        with sim.server.aggregation_scale(scales):
            sim.method.aggregate(sim.server, updates)
        self._aggregations += 1
        sim.record_aggregation(
            "flush",
            self._task.task_id,
            self._aggregations - 1,
            updates,
            size=len(updates),
            min_scale=min(scales),
        )


__all__ = ["ASYNC_MIXING", "STALENESS_DECAY", "TemporalPlaneRunner"]
