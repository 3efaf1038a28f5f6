"""The federated domain-incremental simulation loop (paper Algorithm 1).

The simulation drives an arbitrary :class:`repro.federated.method.FederatedMethod`
through a :class:`repro.continual.scenario.DomainIncrementalScenario`:

for every incremental task ``t``:
    * advance the client-increment schedule (Old / In-between / New groups),
    * partition the new domain's training data across the clients that take it
      (with quantity shift), letting In-between clients concatenate their
      previous domain's shard (Algorithm 1 line 17) — the client data plane
      (:mod:`repro.federated.virtual`) records the partition and builds a
      client's shard when the client is first selected,
    * run ``R`` communication rounds of: random client selection, broadcast of
      the global model (plus the method's broadcast payload, e.g. clustered
      global prompts), local updates, aggregation;
    * evaluate the global model on the test sets of every seen domain and
      record the accuracy matrix.

The loop is entirely method-agnostic; RefFiL and the baselines only differ in
the hooks they implement.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import default_dtype
from repro.continual.evaluator import EvalBackend, GlobalEvaluator
from repro.continual.metrics import ContinualMetrics
from repro.continual.scenario import DomainIncrementalScenario, Task
# Kept importable here: benchmarks/e2e/surface.py names it as a "datasets.partition" trace hook.
from repro.datasets.partition import partition_domain_across_clients  # noqa: F401
from repro.federated.async_plane import TemporalPlaneRunner
from repro.federated.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointMismatchError,
    checkpoint_name,
    config_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from repro.federated.aggregation import build_reduce_backend
from repro.federated.client import ClientHandle
from repro.federated.clock import (
    CostModel,
    DeviceProfile,
    EventScheduler,
    PROFILE_TIERS,
    ProfileCache,
)
from repro.federated.communication import (
    ClientUpdate,
    CommunicationLedger,
    build_codec,
    decode_version,
)
from repro.federated.config import FederatedConfig
from repro.federated.execution import ParallelEvalBackend, ParallelExecutor, build_executor
from repro.federated.faults import CRASH_FRACTION, FaultInjector
from repro.federated.increment import ClientIncrementSchedule
from repro.federated.method import FederatedMethod
from repro.federated.sampling import (
    NoAvailableClientsError,
    sample_clients,
    sample_clients_lazy,
)
from repro.federated.server import FederatedServer
from repro.federated.virtual import VirtualClientPlane
from repro.federated.transport import build_transport
from repro.utils.logging_utils import get_logger
from repro.utils.rng import spawn_rng
from repro.utils.timing import Timer

if TYPE_CHECKING:
    from repro.serving.registry import ModelRegistry
    from repro.serving.service import ServingFrontEnd

logger = get_logger(__name__)


@dataclass
class SimulationResult:
    """Outcome of one complete federated domain-incremental run."""

    method_name: str
    metrics: ContinualMetrics
    per_task_accuracy: List[Dict[str, float]] = field(default_factory=list)
    round_losses: List[float] = field(default_factory=list)
    round_loss_components: List[Dict[str, float]] = field(default_factory=list)
    communication: Optional[CommunicationLedger] = None
    schedule_trace: List[Dict[str, int]] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    #: Mid-task evaluation snapshots recorded by ``eval_every``: one entry per
    #: evaluated round (per aggregation event in async/buffered modes),
    #: ``{"task_id", "round_index", "accuracies", "sim_time"}`` where
    #: ``accuracies`` maps every seen domain's name to its accuracy and
    #: ``sim_time`` is the simulated clock at the snapshot — together they are
    #: the accuracy-vs-simulated-time curve of the temporal plane.
    round_eval_history: List[Dict[str, object]] = field(default_factory=list)
    #: Final simulated wall-clock time (seconds on the temporal plane's
    #: clock).  ``0.0`` under the default instantaneous device profile.
    sim_time: float = 0.0
    #: The temporal plane's event trace: one ``{"time", "kind", ...}`` dict
    #: per event — ``round``/``idle_round``/``failed_round`` in sync mode,
    #: ``dispatch``/``arrival``/``flush``/``client_rejoin``/``task_offline``/
    #: ``budget_abandoned`` in async/buffered modes, and ``client_crash`` /
    #: ``server_restart`` under faults in either.  Deterministic per seed.
    event_log: List[Dict[str, object]] = field(default_factory=list)
    #: The fault plane's recovery accounting: the injector's fired-fault
    #: counters (client crashes, lost/corrupt frames, server restarts),
    #: ``checkpoints_written`` and ``resumed_from`` (the checkpoint path a
    #: resumed run started at, or None).  Empty when the fault plane and
    #: checkpointing are both off.
    fault_stats: Dict[str, object] = field(default_factory=dict)
    #: The serving plane's accounting: ``versions_published``, the final
    #: registry manifest summary, and — with ``serve=True`` — the front end's
    #: per-version request/latency telemetry.  Empty when ``registry_dir`` is
    #: unset.
    serving_stats: Dict[str, object] = field(default_factory=dict)


def _mean_update_metrics(updates: List[ClientUpdate]) -> Dict[str, float]:
    """Per-key client means over the updates that actually report each key.

    A round's loss breakdown (the Table VII components) must not depend on
    which client happens to come first in selection order: an update with no
    metrics — or with a partial set of keys — simply contributes nothing to
    the keys it does not report, instead of erasing the whole round's
    breakdown.  When every update reports every key (the normal case) this is
    the plain client mean, bit-for-bit.
    """
    values: Dict[str, List[float]] = {}
    for update in updates:
        for key, value in update.metrics.items():
            values.setdefault(key, []).append(float(value))
    return {key: float(np.mean(values[key])) for key in sorted(values)}


class FederatedDomainIncrementalSimulation:
    """Runs one method over one scenario under one federated configuration.

    The per-round client loop is delegated to a
    :class:`repro.federated.execution.Executor` selected by
    ``config.executor`` / ``config.num_workers``, seen-task evaluation to the
    eval backend selected by ``config.eval_executor`` (with optional mid-task
    snapshots every ``config.eval_every`` rounds), and the whole run executes
    under the compute dtype selected by ``config.dtype``.
    """

    def __init__(
        self,
        scenario: DomainIncrementalScenario,
        method: FederatedMethod,
        config: FederatedConfig,
    ) -> None:
        self.scenario = scenario
        self.method = method
        self.config = config
        with default_dtype(config.dtype):
            self.model = method.build_model()
        self.server = FederatedServer(self.model)
        self.schedule = ClientIncrementSchedule(config.increment)
        # The fault plane: constructed only when some fault can actually fire,
        # so the zero-fault configuration takes the exact historical code
        # paths (no injector consultations, no extra RNG draws) and stays
        # bit-for-bit identical.
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(config.seed, config.faults) if config.faults.enabled else None
        )
        # The communication plane: every round's broadcast and uploads move
        # through the transport, which records measured wire frames into the
        # server's ledger.
        self.transport = build_transport(
            "loopback",
            config.codec,
            ledger=self.server.ledger,
            payload_codec=method.payload_codec(),
            seed=config.seed,
            bandwidth_limit=config.bandwidth_limit,
            drop_stragglers=config.drop_stragglers,
            retries=config.retries,
            retry_backoff=config.retry_backoff,
            faults=self.fault_injector,
        )
        # The aggregation topology: the default flat star is the historical
        # bit-for-bit path; the tree backend reduces through edge aggregators
        # whose partials ride the same codec'd wire frames as uploads (edge
        # bytes measured in the ledger, CRC + retries under the fault plane).
        if config.reduce_backend != "flat":
            self.server.reduce_backend = build_reduce_backend(
                config.reduce_backend,
                fanout=config.tree_fanout,
                codec=build_codec(config.codec),
                ledger=self.server.ledger,
                faults=self.fault_injector,
                retries=config.retries,
                retry_backoff=config.retry_backoff,
            )
        # The client data plane: clients as lazy (seed, partition-spec)
        # recipes, shards materialized when a client is selected.
        self.virtual = VirtualClientPlane(config)
        self.executor = build_executor(config.executor, config.num_workers)
        # The evaluation plane: when eval_executor="parallel", seen-task
        # evaluation fans over a pinned worker pool — the training executor's
        # own pool when it is parallel too (evaluation jobs interleave with
        # training chunks on the same workers), or a dedicated one otherwise.
        self.eval_executor: Optional[ParallelExecutor] = None
        self._owns_eval_executor = False
        eval_backend: Optional[EvalBackend] = None
        if config.eval_executor == "parallel":
            if isinstance(self.executor, ParallelExecutor):
                self.eval_executor = self.executor
            else:
                self.eval_executor = ParallelExecutor(config.num_workers)
                self._owns_eval_executor = True
            eval_backend = ParallelEvalBackend(self.eval_executor, method)
        # The bound method (not an equivalent lambda) so a parallel backend
        # can verify the evaluator's inference path is the method's own.
        self.evaluator = GlobalEvaluator(
            scenario,
            batch_size=config.eval_batch_size,
            predict_fn=method.predict_logits,
            backend=eval_backend,
        )
        self.round_losses: List[float] = []
        self.round_loss_components: List[Dict[str, float]] = []
        self.round_eval_history: List[Dict[str, object]] = []
        self.timer = Timer()
        # The temporal plane: a deterministic discrete-event clock, a cost
        # model turning measured work into simulated seconds, and per-client
        # device profiles drawn from the configured heterogeneity tier.  With
        # the default instantaneous tier every cost is zero and the clock
        # never moves, so the synchronous path stays bit-for-bit untimed.
        self.clock = EventScheduler()
        self.cost_model = CostModel()
        self.event_log: List[Dict[str, object]] = []
        # Bounded LRU: profiles are pure functions of (tier, seed, client),
        # so eviction just redraws — what keeps a 100k-virtual-client run's
        # temporal bookkeeping O(recent cohort) instead of O(population).
        self._profiles = ProfileCache(config.device_profile, config.seed)
        self._temporal_runner = TemporalPlaneRunner(self)
        #: Checkpoint bookkeeping: how many snapshots this process wrote and
        #: which checkpoint file (if any) this run resumed from.
        self.checkpoints_written = 0
        self._resumed_from: Optional[str] = None
        # The serving plane: with registry_dir set, the run publishes
        # versioned snapshots (task boundaries + every publish_every rounds);
        # with serve=True additionally, a front end over an inference engine
        # serves them concurrently, hot-swapping at every publish.  Both are
        # observational — trained numbers are identical with serving off.
        self.registry: Optional[ModelRegistry] = None
        self.serving: Optional[ServingFrontEnd] = None
        self.versions_published = 0
        if config.registry_dir:
            # Imported here, not with this module: the serving plane builds on
            # this package's checkpoint and wire helpers, so a module-level
            # import would make a cold ``import repro.serving`` re-enter
            # itself half-built.
            from repro.serving import InferenceEngine, ModelRegistry, ServingFrontEnd

            self.registry = ModelRegistry(config.registry_dir, keep=config.checkpoint_keep)
            if config.serve:
                self.serving = ServingFrontEnd(InferenceEngine(self.registry, method)).start()

    # ------------------------------------------------------------------ #
    # Data assignment per task
    # ------------------------------------------------------------------ #
    def _assign_task_data(self, task: Task) -> None:
        """Advance the client data plane to ``task``.

        Replayed for every finished task on resume: checkpoints carry no
        shards, only what the plane rebuilds from the seed and the schedule.
        """
        self.virtual.begin_task(task, self.schedule.assignment_for_task(task.task_id))

    # ------------------------------------------------------------------ #
    # Temporal plane
    # ------------------------------------------------------------------ #
    def profile_for(self, client_id: int) -> DeviceProfile:
        """The client's device profile, drawn from the configured tier (LRU-cached)."""
        return self._profiles.get(client_id)

    def availability_predicate(self, task_id: int, slot: int):
        """The selection-time availability hook, or ``None`` for always-online tiers.

        Returning ``None`` (rather than an always-true predicate) keeps the
        instantaneous/homogeneous configurations on the exact historical
        ``sample_clients`` path — no hook, no behavioural difference.
        """
        tier = PROFILE_TIERS[self.config.device_profile]
        if tier.availability >= 1.0 and tier.churn <= 0.0:
            return None
        return lambda client_id: self.profile_for(client_id).is_online(
            self.config.seed, task_id, slot
        )

    # ------------------------------------------------------------------ #
    # The cohort step's parts shared by sync rounds and event-driven dispatch
    # ------------------------------------------------------------------ #
    def eligible_clients(self, task: Task) -> List[int]:
        """Schedule mode: the task's active clients that hold training data."""
        eligible = self.virtual.eligible()
        if not eligible:
            raise RuntimeError(
                f"no client has training data for task {task.task_id}; "
                "check the increment schedule and partitioning configuration"
            )
        return eligible

    def client_handle(
        self, client_id: int, task_id: int, round_index: int, *rng_labels: object
    ) -> ClientHandle:
        """The handle one selected client trains through.

        ``round_index`` is what the method sees (the round, or the dispatch
        cohort in the event-driven modes); ``rng_labels`` complete the client's
        stream label after ``("client", client_id, task_id)``.
        """
        return ClientHandle(
            client_id=client_id,
            task_id=task_id,
            group=self.virtual.group_for(client_id),
            dataset=self.virtual.materialize(client_id),
            rng=spawn_rng(self.config.seed, "client", client_id, task_id, *rng_labels),
            training=self.config.local,
            domains_held=self.virtual.domains_for(client_id),
            metadata={
                "round_index": float(round_index),
                "rounds_per_task": float(self.config.rounds_per_task),
                "num_tasks": float(self.scenario.num_tasks),
            },
        )

    def maybe_eval_snapshot(self, task_id: int, round_index: int) -> None:
        """Record an ``eval_every`` snapshot if round (or aggregation) ``round_index`` is due.

        Mid-task snapshot of the paper's evaluation protocol: score the
        freshly aggregated global model on every seen domain.  Recorded
        outside the accuracy matrix (which admits one entry per task pair)
        into the per-round history.
        """
        if not self.config.eval_every or (round_index + 1) % self.config.eval_every:
            return
        self.model.load_state_dict(self.server.global_state)
        with self.timer.measure("round_evaluation"):
            accuracies = self.evaluator.evaluate_seen(
                self.model, task_id, self.server.broadcast_view()
            )
        self.round_eval_history.append(
            {
                "task_id": task_id,
                "round_index": round_index,
                "accuracies": accuracies,
                "sim_time": self.clock.now,
            }
        )

    def record_aggregation(
        self,
        kind: str,
        task_id: int,
        index: int,
        updates: List[ClientUpdate],
        barrier: float = 0.0,
        **fields: object,
    ) -> None:
        """What follows every aggregation: a sync round, an async arrival, a buffered flush.

        The trace gets event ``kind`` with ``fields``; ``index`` is the round
        (or aggregation) that ``eval_every`` counts; ``barrier`` is a
        synchronous round's simulated duration — the event-driven modes take
        their time from the scheduler.
        """
        injector = self.fault_injector
        if injector is not None and injector.server_restarts(self.server.round_counter):
            # The fault plane's periodic simulated server restart: the
            # transport's protocol soft state — delta acknowledgements,
            # deferred uploads — is wiped as a real process restart would
            # wipe it.  Durable state (model, ledger, method) lives outside
            # the transport and survives.
            self.transport.restart()
            self.log_event("server_restart", round_counter=self.server.round_counter)
        mean_loss = float(np.mean([update.train_loss for update in updates]))
        self.round_losses.append(mean_loss)
        self.round_loss_components.append(_mean_update_metrics(updates))
        logger.debug(
            "task %d %s %d: %d updates, mean loss %.4f, components %s",
            task_id,
            kind,
            index,
            len(updates),
            mean_loss,
            self.round_loss_components[-1],
        )
        # Zero under the instantaneous tier, so the untimed configuration
        # never sees the clock move.
        self.clock.advance(barrier)
        self.log_event(kind, task_id=task_id, **fields)
        self.maybe_eval_snapshot(task_id, index)

    def client_seconds(self, client_id: int) -> float:
        """Simulated cost of the client's most recent dispatch cycle.

        Measured work through the cost model: download frame bytes over the
        device link, epochs x batches at the device's per-step speed, upload
        frame bytes back.  Valid right after the transport's
        ``broadcast_round``/``collect_updates`` cycle for this client.
        """
        profile = self.profile_for(client_id)
        dataset = self.virtual.materialize(client_id)
        return (
            self.cost_model.transfer_seconds(
                profile, self.transport.last_broadcast_bytes.get(client_id, 0)
            )
            + self.cost_model.training_seconds(
                profile,
                len(dataset),
                self.config.local.batch_size,
                self.config.local.local_epochs,
            )
            + self.cost_model.transfer_seconds(
                profile, self.transport.last_upload_bytes.get(client_id, 0)
            )
            # Retry backoff the fault plane imposed on this client's upload
            # (zero without lost/corrupt attempts — the dict is then empty).
            + self.transport.last_penalty_seconds.get(client_id, 0.0)
        )

    def crash_seconds(self, client_id: int) -> float:
        """Simulated cost of a client that crashed mid-update this cycle.

        The download was already paid in full; training burned
        ``CRASH_FRACTION`` of its normal time before the crash; nothing was
        uploaded.
        """
        profile = self.profile_for(client_id)
        dataset = self.virtual.materialize(client_id)
        return self.cost_model.transfer_seconds(
            profile, self.transport.last_broadcast_bytes.get(client_id, 0)
        ) + CRASH_FRACTION * self.cost_model.training_seconds(
            profile,
            len(dataset),
            self.config.local.batch_size,
            self.config.local.local_epochs,
        )

    def log_event(self, kind: str, **data: object) -> None:
        """Append one stamped entry to the temporal plane's event trace."""
        self.event_log.append({"time": self.clock.now, "kind": kind, **data})

    # ------------------------------------------------------------------ #
    # Round loop (mode="sync")
    # ------------------------------------------------------------------ #
    def _run_round(self, task: Task, round_index: int) -> None:
        self.method.on_round_start(task.task_id, round_index, self.server)
        rng = spawn_rng(self.config.seed, "selection", task.task_id, round_index)
        available = self.availability_predicate(task.task_id, round_index)
        try:
            if self.virtual.fleet:
                # Fleet mode: an O(cohort) draw from range(population) — the
                # population is never instantiated as a list.
                selected = sample_clients_lazy(
                    self.config.population,
                    self.config.clients_per_round,
                    rng,
                    available=available,
                )
            else:
                selected = sample_clients(
                    self.eligible_clients(task),
                    self.config.clients_per_round,
                    rng,
                    available=available,
                )
        except NoAvailableClientsError:
            # Every eligible device is offline this round: the server waits
            # out an idle tick instead of training — nothing aggregates, no
            # loss is recorded, and the trace says so explicitly.
            self.clock.advance(self.cost_model.idle_seconds)
            self.log_event("idle_round", task_id=task.task_id, round_index=round_index)
            return
        # The fault plane's per-round consultations.  Crashed clients still
        # receive the broadcast (they were selected; the server does not know
        # they will die) but never train to completion or upload.
        injector = self.fault_injector
        crashed: frozenset = frozenset()
        if injector is not None:
            crashed = frozenset(
                client_id
                for client_id in selected
                if injector.client_crashes(task.task_id, round_index, client_id)
            )
            for client_id in sorted(crashed):
                self.log_event(
                    "client_crash",
                    task_id=task.task_id,
                    round_index=round_index,
                    client_id=client_id,
                )
        handles = [
            self.client_handle(client_id, task.task_id, round_index, round_index)
            for client_id in selected
            if client_id not in crashed
        ]
        # One shared read-only broadcast per round (zero per-client copies),
        # delivered through the transport: clients train from the *decoded*
        # broadcast frame (identical to the server state for lossless codecs,
        # the dequantized state for lossy ones).
        broadcast = self.transport.broadcast_round(
            self.server, selected, task.task_id, round_index
        )
        if handles:
            updates = self.executor.run_round(self.method, self.model, broadcast, handles)
        else:
            # Every selected client crashed before training; nothing to run.
            updates = []
        # Decode-before-aggregate: uploads become wire frames, the bandwidth
        # scenario drops/defers stragglers, and aggregation sees exactly what
        # arrived (plus any deferred uploads from the previous round).
        updates = self.transport.collect_updates(updates)
        # The synchronous barrier on the simulated clock: the round takes as
        # long as its slowest selected device — a crashed client burns its
        # download plus a fraction of its training time, a surviving one its
        # full measured cycle (including any retry backoff).
        barrier = max(
            self.crash_seconds(client_id) if client_id in crashed else self.client_seconds(client_id)
            for client_id in selected
        )
        if not updates:
            # Nothing reached aggregation: every selected client crashed, or
            # every upload exhausted its retries under drop_stragglers.  The
            # global model simply does not advance this round — no loss is
            # recorded, and the trace says so explicitly.
            self.clock.advance(barrier)
            self.log_event(
                "failed_round",
                task_id=task.task_id,
                round_index=round_index,
                clients=tuple(selected),
            )
            return
        self.method.aggregate(self.server, updates)
        # Retry backoff the fault plane imposed on a tree reduce's edge hops
        # joins the round's barrier (zero for the flat star — collect_penalty
        # is a no-op returning 0.0 there).
        barrier += self.server.reduce_backend.collect_penalty()
        self.record_aggregation(
            "round",
            task.task_id,
            round_index,
            updates,
            barrier=barrier,
            round_index=round_index,
            clients=tuple(selected),
        )
        if (
            self.registry is not None
            and self.config.publish_every > 0
            and (round_index + 1) % self.config.publish_every == 0
        ):
            # Attach the freshest accuracy snapshot when this very round was
            # just evaluated (publish_every aligned with eval_every); versions
            # between evaluations publish without one.
            snapshot_acc: Optional[Dict[str, float]] = None
            if self.round_eval_history:
                last = self.round_eval_history[-1]
                if last["task_id"] == task.task_id and last["round_index"] == round_index:
                    snapshot_acc = dict(last["accuracies"])  # type: ignore[arg-type]
            self._publish_version(task.task_id, round_index + 1, snapshot_acc)

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def _checkpoint_payload(self, start_task: int, start_round: int) -> Dict[str, object]:
        """Everything a fresh process needs to continue bit-for-bit.

        Model state and method broadcast payload are stored as the model
        version's one serialization, its ``identity`` broadcast frame body
        (:meth:`~repro.federated.server.BroadcastHandle.serialized`); the
        method object itself is pickled whole (it is required to be picklable
        for the parallel executor anyway).  Nothing rebuilt deterministically
        from the config is stored: datasets, client schedules, device
        profiles, client shards (the resume path replays task assignment
        through the client data plane, which rebuilds its partition indices),
        and every RNG — ``spawn_rng`` streams are pure functions of ``(seed,
        labels)``, so there is no generator state.

        The transport's entry holds per-client model copies (downlink
        acknowledgements) only under a codec that reads them back, ``delta``;
        every other checkpoint stays model-sized however many clients the
        run has contacted.
        """
        return {
            "version": CHECKPOINT_VERSION,
            "fingerprint": config_fingerprint(self.config),
            "start_task": start_task,
            "start_round": start_round,
            "server": {
                "version": self.server.broadcast_view().serialized(),
                "round_counter": self.server.round_counter,
            },
            "method_blob": pickle.dumps(self.method, protocol=pickle.HIGHEST_PROTOCOL),
            "transport": self.transport.state_dict(),
            "ledger_blob": pickle.dumps(self.server.ledger, protocol=pickle.HIGHEST_PROTOCOL),
            "round_losses": list(self.round_losses),
            "round_loss_components": [dict(entry) for entry in self.round_loss_components],
            "round_eval_history": list(self.round_eval_history),
            "event_log": list(self.event_log),
            "clock": {"now": self.clock.now, "seq": self.clock._seq},
            "evaluator": {
                "matrix": np.array(self.evaluator.accuracy_matrix._matrix, copy=True),
                "per_task_history": [dict(entry) for entry in self.evaluator.per_task_history],
            },
            "faults": None if self.fault_injector is None else self.fault_injector.state_dict(),
            "checkpoints_written": self.checkpoints_written,
        }

    def _write_checkpoint(self, start_task: int, start_round: int) -> None:
        """Persist a snapshot that resumes at ``(start_task, start_round)``."""
        if not self.config.checkpoint_dir:
            return
        path = os.path.join(
            self.config.checkpoint_dir, checkpoint_name(start_task, start_round)
        )
        save_checkpoint(path, self._checkpoint_payload(start_task, start_round))
        self.checkpoints_written += 1
        logger.debug("wrote checkpoint %s", path)
        if self.config.checkpoint_keep > 0:
            # Retention after the new snapshot is durable: a crash mid-prune
            # leaves extra old checkpoints, never fewer than checkpoint_keep.
            prune_checkpoints(self.config.checkpoint_dir, self.config.checkpoint_keep)

    # ------------------------------------------------------------------ #
    # Serving plane
    # ------------------------------------------------------------------ #
    def _publish_version(
        self, task_id: int, round_index: int, accuracies: Optional[Dict[str, float]] = None
    ) -> None:
        """Publish the current global model (+ broadcast payload) as a version.

        Mirrors the checkpoint payload's durable core — state and payload
        flattened through the method's own ``payload_codec()`` — but through
        the registry's codec-compressed, manifest-indexed container, and
        notifies a co-running front end so it hot-swaps at its next batch
        boundary.
        """
        if self.registry is None:
            return
        self.registry.publish(
            name=self.method.name,
            state=self.server.global_state,
            payload=self.server.broadcast_payload,
            payload_codec=self.method.payload_codec(),
            codec=self.config.serve_codec,
            task_id=task_id,
            round_index=round_index,
            fingerprint=config_fingerprint(self.config),
            accuracy=accuracies,
        )
        self.versions_published += 1
        if self.serving is not None:
            self.serving.notify_publish()

    def _serving_stats(self) -> Dict[str, object]:
        if self.registry is None:
            return {}
        stats: Dict[str, object] = {
            "versions_published": self.versions_published,
            "versions_retained": len(self.registry.list_versions()),
        }
        latest = self.registry.latest()
        stats["latest_version"] = latest.version if latest is not None else None
        if self.serving is not None:
            stats["frontend"] = self.serving.telemetry()
        return stats

    def _restore(self, payload: Dict[str, object]) -> None:
        """Load a checkpoint payload into this (freshly constructed) simulation."""
        with default_dtype(self.config.dtype):
            server_state = payload["server"]
            state, broadcast_payload = decode_version(server_state["version"])
            self.server.global_state = state
            self.server.broadcast_payload = broadcast_payload
            self.server.round_counter = server_state["round_counter"]
            self.model.load_state_dict(state)
            # Swap the method's state in place: the evaluator (and any
            # parallel eval backend) holds bound references to *this* method
            # object, so the object identity must survive the restore.
            restored = pickle.loads(payload["method_blob"])
            self.method.__dict__.clear()
            self.method.__dict__.update(restored.__dict__)
            ledger = pickle.loads(payload["ledger_blob"])
            self.server.ledger = ledger
            self.transport.ledger = ledger
            if getattr(self.server.reduce_backend, "ledger", None) is not None:
                # A tree backend keeps accounting into the restored ledger.
                self.server.reduce_backend.ledger = ledger
            self.transport.load_state_dict(payload["transport"])
            self.round_losses[:] = payload["round_losses"]
            self.round_loss_components[:] = payload["round_loss_components"]
            self.round_eval_history[:] = payload["round_eval_history"]
            self.event_log[:] = payload["event_log"]
            self.clock.now = payload["clock"]["now"]
            self.clock._seq = payload["clock"]["seq"]
            self.evaluator.accuracy_matrix._matrix[:] = payload["evaluator"]["matrix"]
            self.evaluator.per_task_history[:] = payload["evaluator"]["per_task_history"]
            if self.fault_injector is not None and payload["faults"] is not None:
                self.fault_injector.load_state_dict(payload["faults"])
            self.checkpoints_written = payload["checkpoints_written"]

    def _maybe_resume(self) -> Tuple[int, int]:
        """Restore the latest checkpoint, returning the (task, round) to start at.

        A directory with no checkpoint yet means a fresh start — the same
        command line works for the first launch and for every relaunch after
        a crash.  A checkpoint from an incompatibly configured run, or whose
        payload claims another :data:`CHECKPOINT_VERSION` than its container,
        raises :class:`CheckpointMismatchError` rather than silently diverging
        (or failing inside a reader of the old layout).
        """
        path = latest_checkpoint(self.config.checkpoint_dir)
        if path is None:
            return 0, 0
        payload = load_checkpoint(path)
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint {path!r} holds a version-{payload.get('version')} payload, "
                f"this build reads version {CHECKPOINT_VERSION}; refusing to resume"
            )
        expected = config_fingerprint(self.config)
        if payload.get("fingerprint") != expected:
            raise CheckpointMismatchError(
                f"checkpoint {path!r} was written under configuration fingerprint "
                f"{payload.get('fingerprint')}, this run's is {expected}; refusing to "
                "resume into a diverging run"
            )
        self._restore(payload)
        self._resumed_from = path
        logger.info(
            "resumed from %s at task %d round %d",
            path,
            payload["start_task"],
            payload["start_round"],
        )
        return payload["start_task"], payload["start_round"]

    def _fault_stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {}
        if self.fault_injector is not None:
            stats.update(self.fault_injector.summary())
        if self.checkpoints_written or self._resumed_from is not None:
            stats["checkpoints_written"] = self.checkpoints_written
            stats["resumed_from"] = self._resumed_from
        return stats

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run_task(self, task: Task, start_round: int = 0, *, resumed: bool = False) -> Dict[str, float]:
        """Run one task — rounds in sync mode, the event loop otherwise —
        and return per-domain evaluation accuracies.

        ``start_round``/``resumed`` are the resume path's entry point: a
        mid-task checkpoint re-enters the round loop at ``start_round`` and
        must not replay ``on_task_start`` (it already ran before round 0 of
        the original process); data assignment always replays, because client
        shards are derived state the checkpoint deliberately does not carry.
        The task's splits are taken from the scenario at the run's dtype, so
        a task built outside that dtype trains and scores exactly as
        :meth:`run` would.
        """
        with default_dtype(self.config.dtype):
            task = self.scenario.task(task.task_id)
            if not resumed:
                self.method.on_task_start(task.task_id, self.server)
            self._assign_task_data(task)
            if self.config.mode == "sync":
                for round_index in range(start_round, self.config.rounds_per_task):
                    self._run_round(task, round_index)
                    if (
                        self.config.checkpoint_every > 0
                        and (round_index + 1) % self.config.checkpoint_every == 0
                        and round_index + 1 < self.config.rounds_per_task
                    ):
                        self._write_checkpoint(task.task_id, round_index + 1)
            else:
                self._temporal_runner.run_task(task)
            self.method.on_task_end(task.task_id, self.server)
            self.model.load_state_dict(self.server.global_state)
            # Free when the final round's snapshot already scored this handle:
            # a hook that assigns server state yields a new one and is re-scored.
            with self.timer.measure("evaluation"):
                return self.evaluator.evaluate_after_task(
                    self.model, task.task_id, self.server.broadcast_view()
                )

    def run(self) -> SimulationResult:
        """Run the complete domain-incremental stream and return the summary.

        With ``checkpoint_dir`` set, a snapshot lands after every task (plus
        every ``checkpoint_every`` rounds in sync mode); with ``resume=True``
        the run first restores the latest snapshot and replays only the data
        assignment of already-finished tasks — the training they did lives in
        the checkpoint, so a killed-and-relaunched run reproduces the
        uninterrupted run bit-for-bit.
        """
        try:
            with self.timer.measure("total"):
                start_task, start_round = 0, 0
                if self.config.resume:
                    start_task, start_round = self._maybe_resume()
                with default_dtype(self.config.dtype):
                    tasks = self.scenario.tasks()  # every split at the run's dtype
                for task in tasks:
                    if task.task_id < start_task:
                        # Already trained before the checkpoint: replay only
                        # the deterministic data assignment, so later tasks'
                        # in-between clients see the right previous shards.
                        self._assign_task_data(task)
                        continue
                    resumed_here = task.task_id == start_task and start_round > 0
                    results = self.run_task(
                        task,
                        start_round=start_round if resumed_here else 0,
                        resumed=resumed_here,
                    )
                    if self.config.checkpoint_dir:
                        self._write_checkpoint(task.task_id + 1, 0)
                    if self.registry is not None:
                        # Task boundaries always publish: this is the snapshot
                        # the paper's evaluation protocol scores, so it is the
                        # one a serving fleet should converge to.
                        self._publish_version(task.task_id + 1, 0, dict(results))
                    logger.info(
                        "[%s] task %d (%s): %s",
                        self.method.name,
                        task.task_id,
                        task.domain_name,
                        ", ".join(f"{name}={acc:.3f}" for name, acc in results.items()),
                    )
        finally:
            self.close()
        return SimulationResult(
            method_name=self.method.name,
            metrics=self.evaluator.summary(),
            per_task_accuracy=self.evaluator.per_task_history,
            round_losses=self.round_losses,
            round_loss_components=self.round_loss_components,
            communication=self.server.ledger,
            schedule_trace=self.schedule.schedule_trace(self.scenario.num_tasks),
            wall_clock_seconds=self.timer.total("total"),
            round_eval_history=self.round_eval_history,
            sim_time=self.clock.now,
            event_log=self.event_log,
            fault_stats=self._fault_stats(),
            serving_stats=self._serving_stats(),
        )

    def close(self) -> None:
        """Release executor resources (worker pools); idempotent.

        Shuts down both executors: the training executor and — when the
        simulation owns a dedicated parallel eval pool (``executor="serial"``
        with ``eval_executor="parallel"``) — the eval executor too.  Called
        by :meth:`run` on every exit path, including after a mid-round
        failure such as :class:`repro.federated.execution.WorkerDiedError` —
        each stage releases even when an earlier one raises, so no pool is
        ever leaked.  Use the simulation as a context manager when driving
        tasks manually via :meth:`run_task`.
        """
        try:
            if self.serving is not None:
                # Drain-then-stop: every request accepted before this point is
                # answered (on whichever version it was batched under).
                self.serving.stop()
        finally:
            try:
                self.transport.finalize()
            finally:
                try:
                    self.executor.close()
                finally:
                    if self._owns_eval_executor and self.eval_executor is not None:
                        self.eval_executor.close()

    def __enter__(self) -> "FederatedDomainIncrementalSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["FederatedDomainIncrementalSimulation", "SimulationResult"]
