"""The round execution engine: how a round's selected clients actually run.

Between ``broadcast`` and ``aggregate`` a communication round is
embarrassingly parallel: every selected client trains independently from the
same global state.  This module turns that structure into a pluggable
:class:`Executor`:

* :class:`SerialExecutor` — trains the clients one after another on the
  simulation's shared model instance, reproducing the historical
  single-process behaviour bit-for-bit (same client order, same RNG streams,
  same floating-point summation order).
* :class:`ParallelExecutor` — fans the clients out over a pool of pinned
  worker processes.  The round's broadcast is serialized exactly once (via
  :meth:`BroadcastHandle.serialized`) and shipped to at most ``num_workers``
  chunk tasks — never once per client — and each worker process trains on a
  cached per-process model replica.  Updates are reassembled in the original
  selection order so FedAvg accumulates in the same order as the serial path
  and results stay identical for a given seed.

The client data plane
---------------------
Client shards dominate per-round IPC yet only change at task boundaries, so
the parallel executor ships them through a per-worker cache instead of
re-pickling them every round:

* handles cross the boundary *light* (:meth:`ClientHandle.lighten` plus a
  :class:`~repro.federated.client.ShardRef`), and workers rebind the dataset
  from the module-level ``_WORKER_SHARDS`` cache keyed by
  ``(client_id, task_id, fingerprint)`` — mirroring ``_WORKER_REPLICAS``;
* workers are *pinned*: each has a dedicated task queue
  (:class:`_PinnedWorkerPool`), so the parent knows exactly which worker runs
  which chunk and tracks every worker's shard inventory.  That inventory is
  the cache-miss handshake — shard bytes are attached to a chunk only for
  keys the receiving worker does not already hold, i.e. once per
  (client, task) rather than once per round;
* the fingerprint component of the key invalidates stale entries whenever a
  shard's content changes — in-between clients concatenating their previous
  task's shard produce a new fingerprint — and both sides evict entries from
  other tasks when a round for a new task arrives, bounding worker memory to
  one task's shards.

Per-round accounting of everything shipped (method, broadcast, shard bytes,
hits/misses) is appended to :attr:`ParallelExecutor.ipc_log` as
:class:`RoundIPC` records; ``benchmarks/bench_round_parallel.py`` turns those
into the ``round_ipc`` section of ``BENCH_round.json``.

The evaluation plane
--------------------
The paper's evaluation protocol (Sec. V-A) scores the global model on *every*
seen domain after each learning step — an O(T²) forward-pass workload per run
(O(T·R) with mid-task ``eval_every`` snapshots) that the same pinned pool
absorbs between training rounds:

* :meth:`ParallelExecutor.run_eval` fans :class:`EvalJob` units — one
  (seen-task, batch-aligned test-shard slice) each — over the workers and
  reassembles per-slice *integer* correct/total counts in job order.  Slices
  are cut on the serial ``DataLoader``'s batch grid
  (:func:`batch_aligned_slices`), so every worker runs exactly the batches
  the serial path would run and the summed counts reproduce serial
  accuracies bit-for-bit;
* test sets are immutable for the whole run, so slices enter a per-worker
  ``_WORKER_EVAL_SHARDS`` cache keyed by
  ``(task_id, slice_index, fingerprint)`` — mirroring ``_WORKER_SHARDS`` —
  and cross IPC **once per run**: the parent mirrors each worker's eval
  inventory exactly like the training data plane, attaching slice bytes only
  on a genuine miss.  A new fingerprint for a (task, slice) pair (e.g. a
  dtype switch) replaces the stale entry on both sides;
* :class:`ParallelEvalBackend` adapts the fan-out to the
  :class:`repro.continual.evaluator.GlobalEvaluator` backend interface, and
  per-call accounting lands in :attr:`ParallelExecutor.eval_ipc_log` as
  :class:`EvalIPC` records (the ``eval_plane`` section of
  ``BENCH_round.json``, via ``benchmarks/bench_eval_parallel.py``).

Both executors hand every client the *same* read-only broadcast state, so no
per-client ``clone_state_dict`` happens anywhere on the hot path.

Methods must follow the picklability contract documented in
:mod:`repro.federated.method` to be usable under the parallel executor.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import traceback
from dataclasses import dataclass, replace
from queue import Empty
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.autograd.tape import KERNELS, set_kernel
from repro.autograd.tensor import get_default_dtype, set_default_dtype
from repro.continual.evaluator import EvalBackend, PredictFn, count_correct
from repro.continual.scenario import Task
from repro.datasets.base import ArrayDataset
from repro.federated.client import ClientHandle, ShardRef
from repro.federated.communication import ClientUpdate
from repro.federated.method import FederatedMethod
from repro.federated.server import BroadcastHandle
from repro.nn.module import Module
from repro.nn.serialization import (
    deserialize_state,
    readonly_payload_view,
    readonly_state_view,
)

# --------------------------------------------------------------------------- #
# Worker-process machinery (module level so it pickles by reference)
# --------------------------------------------------------------------------- #

#: Per-worker-process cache of model replicas, keyed by the method identity and
#: the broadcast state signature, so a replica is built once per process and
#: then only reloaded with fresh weights every round.
_WORKER_REPLICAS: Dict[tuple, Module] = {}

#: Per-worker-process cache of client dataset shards, keyed by
#: ``ShardRef.cache_key`` = (client_id, task_id, fingerprint).  Entries are
#: installed from the shard bytes the parent attaches on a cache miss and
#: evicted when a chunk for a different task arrives (shards are immutable
#: within a task, so nothing else can invalidate them mid-task).
_WORKER_SHARDS: Dict[Tuple[int, int, str], ArrayDataset] = {}

#: Per-worker-process cache of test-set slices for the evaluation plane,
#: keyed by ``EvalSliceRef.cache_key`` = (task_id, slice_index, fingerprint).
#: Test sets never change within a run, so entries live for the pool's
#: lifetime and each slice crosses IPC once per run; a changed fingerprint
#: for the same (task, slice) pair (e.g. a dtype switch between simulations
#: on a long-lived pool) replaces the stale entry at install time.
_WORKER_EVAL_SHARDS: Dict[Tuple[int, int, str], ArrayDataset] = {}

_ShardKey = Tuple[int, int, str]


def _replica_key(method: FederatedMethod, state: Dict[str, np.ndarray]) -> tuple:
    # State shapes alone cannot distinguish architectures that differ in
    # non-shape knobs (e.g. attention head counts), so the method's config
    # repr is folded into the key as a build fingerprint.  The compute dtype
    # is part of the key too: a long-lived worker that switches default dtype
    # between simulations must not reuse a replica whose non-state buffers
    # were built at the previous precision.
    signature = tuple((name, value.shape, str(value.dtype)) for name, value in state.items())
    fingerprint = repr(getattr(method, "config", None))
    return (
        type(method).__module__,
        type(method).__qualname__,
        method.name,
        fingerprint,
        get_default_dtype().name,
        signature,
    )


def _replica_for(method: FederatedMethod, state: Dict[str, np.ndarray]) -> Module:
    key = _replica_key(method, state)
    model = _WORKER_REPLICAS.get(key)
    if model is None:
        model = method.build_model()
        _WORKER_REPLICAS[key] = model
    return model


def _run_client_chunk(
    method_blob: bytes,
    broadcast_blob: bytes,
    indexed_clients: Sequence[Tuple[int, ClientHandle]],
    dtype_name: str,
    kernel: str = "eager",
) -> List[Tuple[int, ClientUpdate, Any]]:
    """Train one worker's share of the round's clients.

    Receives the round-shared data (method + broadcast) as pre-pickled blobs:
    the parent serialized each exactly once and every chunk reuses the same
    bytes.  Returns ``(selection_index, update, exported_client_state)``
    triples so the parent can restore selection order and merge method state.
    The parent's autograd kernel travels with every chunk (like the compute
    dtype) so ``kernel="tape"`` runs trace-and-replay inside the workers too.
    """
    set_default_dtype(dtype_name)
    set_kernel(kernel)
    method: FederatedMethod = pickle.loads(method_blob)
    state, payload = deserialize_state(broadcast_blob)
    # numpy's writeable=False flag does not survive pickling; re-protect the
    # shared state and payload so a contract-violating method fails here
    # exactly as it would under the serial executor, instead of silently
    # corrupting what later clients in this chunk reload.
    state = readonly_state_view(state)
    payload = readonly_payload_view(payload)
    model = _replica_for(method, state)
    results: List[Tuple[int, ClientUpdate, Any]] = []
    for index, client in indexed_clients:
        model.load_state_dict(state)
        update = method.local_update(model, state, payload, client)
        results.append((index, update, method.export_client_state(client.client_id)))
    return results


def _install_shards(shard_blobs: Dict[_ShardKey, bytes]) -> None:
    """Unpack the shard payloads the parent attached for this worker's misses."""
    for key, blob in shard_blobs.items():
        _WORKER_SHARDS[key] = pickle.loads(blob)


def _evict_stale_shards(task_id: int) -> None:
    """Drop cached shards from other tasks (shards only change at task boundaries)."""
    for key in [key for key in _WORKER_SHARDS if key[1] != task_id]:
        del _WORKER_SHARDS[key]


def _resolve_chunk(
    items: Sequence[Tuple[int, ClientHandle, Optional[ShardRef]]],
) -> List[Tuple[int, ClientHandle]]:
    """Rebind each light handle's dataset from the worker shard cache."""
    resolved: List[Tuple[int, ClientHandle]] = []
    for index, client, ref in items:
        if ref is not None:
            shard = _WORKER_SHARDS.get(ref.cache_key)
            if shard is None:
                raise RuntimeError(
                    f"worker shard cache miss for client {ref.client_id} "
                    f"task {ref.task_id}: the parent's inventory claims this "
                    "shard was already shipped to this worker — pinned-queue "
                    "bookkeeping and worker eviction are out of sync"
                )
            if len(shard) != ref.num_samples:
                raise RuntimeError(
                    f"worker shard cache corruption for client {ref.client_id} "
                    f"task {ref.task_id}: cached shard has {len(shard)} samples "
                    f"but the handle expects {ref.num_samples}"
                )
            client = replace(client, dataset=shard)
        resolved.append((index, client))
    return resolved


@dataclass(frozen=True)
class EvalSliceRef:
    """Identity of one batch-aligned test-set slice, without the payload.

    The evaluation plane's analogue of :class:`~repro.federated.client.ShardRef`:
    rides every eval job over IPC while the slice bytes themselves ship only on
    a worker cache miss — once per run, since test sets are immutable.
    """

    task_id: int
    slice_index: int
    fingerprint: str
    num_samples: int

    @property
    def cache_key(self) -> Tuple[int, int, str]:
        return (self.task_id, self.slice_index, self.fingerprint)


@dataclass(frozen=True)
class EvalJob:
    """One unit of evaluation work: score one slice of one seen task's test set."""

    task_id: int
    slice_index: int
    dataset: ArrayDataset
    batch_size: int

    def slice_ref(self) -> EvalSliceRef:
        return EvalSliceRef(
            task_id=self.task_id,
            slice_index=self.slice_index,
            fingerprint=self.dataset.fingerprint(),
            num_samples=len(self.dataset),
        )


def batch_aligned_slices(
    dataset: ArrayDataset, batch_size: int, num_slices: int
) -> List[ArrayDataset]:
    """Cut ``dataset`` into at most ``num_slices`` contiguous slices on the
    serial ``DataLoader``'s batch grid.

    Every slice boundary falls on a multiple of ``batch_size``, so evaluating
    the slices independently runs *exactly* the mini-batches a serial pass
    over the whole dataset runs — same batch shapes, same floating-point
    forward passes — and the per-slice integer correct counts sum to the
    serial count.  That is the invariant behind the eval plane's bit-for-bit
    serial/parallel parity.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if num_slices < 1:
        raise ValueError("num_slices must be at least 1")
    if len(dataset) == 0:
        raise ValueError("cannot slice an empty dataset")
    num_batches = -(-len(dataset) // batch_size)  # ceil
    pieces = min(num_slices, num_batches)
    slices: List[ArrayDataset] = []
    for index in range(pieces):
        start = (index * num_batches // pieces) * batch_size
        end = min(((index + 1) * num_batches // pieces) * batch_size, len(dataset))
        slices.append(dataset.subset(np.arange(start, end)))
    return slices


def _install_eval_shards(shard_blobs: Dict[_ShardKey, bytes]) -> None:
    """Install the eval-slice payloads the parent attached for this worker's misses.

    A fresh fingerprint for an already-held (task, slice) pair replaces the
    stale entry, so the cache is bounded by one copy of the test suite even
    when a long-lived pool switches compute dtype between simulations.
    """
    for key, blob in shard_blobs.items():
        for stale in [k for k in _WORKER_EVAL_SHARDS if k[:2] == key[:2] and k != key]:
            del _WORKER_EVAL_SHARDS[stale]
        _WORKER_EVAL_SHARDS[key] = pickle.loads(blob)


def _run_eval_chunk(
    method_blob: bytes,
    broadcast_blob: bytes,
    items: Sequence[Tuple[int, EvalSliceRef, int]],
    dtype_name: str,
) -> List[Tuple[int, int, int]]:
    """Score one worker's share of the evaluation jobs.

    Loads the broadcast state into the cached per-process replica once, then
    counts correct predictions per slice through the method's own inference
    path (``predict_logits``).  Returns ``(job_index, correct, total)``
    triples; integer counts make the parent-side reassembly exact.
    """
    set_default_dtype(dtype_name)
    method: FederatedMethod = pickle.loads(method_blob)
    state, _ = deserialize_state(broadcast_blob)
    state = readonly_state_view(state)
    model = _replica_for(method, state)
    model.load_state_dict(state)
    results: List[Tuple[int, int, int]] = []
    for job_index, ref, batch_size in items:
        shard = _WORKER_EVAL_SHARDS.get(ref.cache_key)
        if shard is None:
            raise RuntimeError(
                f"worker eval-shard cache miss for task {ref.task_id} "
                f"slice {ref.slice_index}: the parent's inventory claims this "
                "slice was already shipped to this worker — pinned-queue "
                "bookkeeping and worker install are out of sync"
            )
        if len(shard) != ref.num_samples:
            raise RuntimeError(
                f"worker eval-shard cache corruption for task {ref.task_id} "
                f"slice {ref.slice_index}: cached slice has {len(shard)} samples "
                f"but the job expects {ref.num_samples}"
            )
        correct = count_correct(
            model, shard, batch_size=batch_size, predict_fn=method.predict_logits
        )
        results.append((job_index, correct, len(shard)))
    return results


class WorkerDiedError(RuntimeError):
    """A pinned pool worker died without reporting its chunk's result.

    Raised instead of blocking forever on the result queue (the pre-fault-
    plane failure mode) whether or not fault injection is active.  Carries
    everything a caller needs to react: which workers died with which exit
    codes, the client ids whose updates were lost with them, and the results
    other workers had already reported (so a self-healing executor can absorb
    them and replay only the lost chunks).
    """

    def __init__(
        self,
        worker_ids: Sequence[int],
        exit_codes: Sequence[Optional[int]],
        client_ids: Sequence[int] = (),
        partial_outcomes: Optional[List[tuple]] = None,
    ) -> None:
        super().__init__()
        self.worker_ids = list(worker_ids)
        self.exit_codes = list(exit_codes)
        self.client_ids = list(client_ids)
        self.partial_outcomes = partial_outcomes if partial_outcomes is not None else []

    def __str__(self) -> str:
        message = (
            f"worker process(es) {self.worker_ids} died without reporting a "
            f"result (exit codes {self.exit_codes})"
        )
        if self.client_ids:
            message += f"; pending client ids {self.client_ids}"
        return message


def _encode_error(exc: BaseException) -> Tuple[Optional[bytes], str]:
    """Make a worker failure shippable: the exception if picklable, plus text."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        blob = None
    return blob, text


def _raise_worker_error(encoded: Tuple[Optional[bytes], str]) -> None:
    blob, text = encoded
    if blob is not None:
        try:
            exc = pickle.loads(blob)
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            # Re-raise with the original type (so callers can still catch it)
            # but chain the worker-side traceback, which the parent-side stack
            # cannot show.
            raise exc from RuntimeError(f"worker traceback:\n{text}")
    raise RuntimeError(f"worker process failed:\n{text}")


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Entry point of one pinned worker; loops until the ``None`` sentinel.

    Messages are ``(kind, payload)`` pairs: ``"train"`` chunks run local
    updates through the client data plane, ``"eval"`` chunks score test-set
    slices through the evaluation plane.  Both planes share the worker's
    model replica cache, so evaluation jobs reuse the replica the training
    rounds already built.  A ``"die"`` message is the fault plane's
    deterministic worker kill: the process exits immediately with the given
    code, reporting nothing — exactly like a real crash.
    """
    while True:
        message = task_queue.get()
        if message is None:
            return
        kind, payload = message
        if kind == "die":
            os._exit(int(payload))
        try:
            if kind == "train":
                (
                    method_blob,
                    broadcast_blob,
                    items,
                    shard_blobs,
                    dtype_name,
                    task_id,
                    kernel,
                ) = payload
                _install_shards(shard_blobs)
                _evict_stale_shards(task_id)
                results = _run_client_chunk(
                    method_blob,
                    broadcast_blob,
                    _resolve_chunk(items),
                    dtype_name,
                    kernel,
                )
            elif kind == "eval":
                method_blob, broadcast_blob, items, shard_blobs, dtype_name = payload
                _install_eval_shards(shard_blobs)
                results = _run_eval_chunk(method_blob, broadcast_blob, items, dtype_name)
            else:
                raise RuntimeError(f"unknown worker message kind {kind!r}")
            result_queue.put((worker_id, "ok", results))
        except BaseException as exc:  # ship the failure instead of dying silently
            result_queue.put((worker_id, "error", _encode_error(exc)))


class _PinnedWorkerPool:
    """``num_workers`` long-lived processes, each with a dedicated task queue.

    ``concurrent.futures.ProcessPoolExecutor`` hands tasks to whichever worker
    grabs them first, so a parent can never know which process holds which
    cached shard.  Pinning each worker to its own queue makes the worker-side
    caches addressable: the parent decides which worker runs which chunk, so
    it can mirror every worker's shard inventory exactly and attach shard
    bytes only for genuine misses.
    """

    def __init__(self, num_workers: int, context) -> None:
        self._context = context
        self._result_queue = context.Queue()
        self._task_queues = [context.Queue() for _ in range(num_workers)]
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(worker_id, task_queue, self._result_queue),
                daemon=True,
            )
            for worker_id, task_queue in enumerate(self._task_queues)
        ]
        for process in self._processes:
            process.start()

    def submit(self, worker_id: int, message: tuple) -> None:
        self._task_queues[worker_id].put(message)

    def collect(self, pending: Set[int]) -> List[tuple]:
        """Gather one result per pending worker, failing fast if one dies.

        Only the workers with an outstanding chunk are liveness-checked; an
        idle worker dying (nothing submitted to it this round) must not abort
        a round whose results are all coming from live workers.  A dead
        pending worker raises :class:`WorkerDiedError` carrying the results
        already gathered, so a healing caller loses only the dead workers'
        chunks.
        """
        pending = set(pending)
        outcomes: List[tuple] = []
        while pending:
            try:
                outcome = self._result_queue.get(timeout=1.0)
            except Empty:
                dead = sorted(
                    worker_id
                    for worker_id in pending
                    if not self._processes[worker_id].is_alive()
                )
                if dead:
                    codes = [self._processes[worker_id].exitcode for worker_id in dead]
                    raise WorkerDiedError(dead, codes, partial_outcomes=outcomes)
                continue
            outcomes.append(outcome)
            pending.discard(outcome[0])
        return outcomes

    def respawn(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh process on a fresh task queue.

        Anything still sitting in the dead worker's queue (the lost chunk, a
        pending kill) dies with the queue; the replacement starts with empty
        module-level caches, which is why the healing caller must forget the
        worker's mirrored inventories before resubmitting.
        """
        process = self._processes[worker_id]
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        stale_queue = self._task_queues[worker_id]
        try:
            stale_queue.close()
            stale_queue.cancel_join_thread()
        except Exception:
            pass
        task_queue = self._context.Queue()
        self._task_queues[worker_id] = task_queue
        replacement = self._context.Process(
            target=_worker_main,
            args=(worker_id, task_queue, self._result_queue),
            daemon=True,
        )
        self._processes[worker_id] = replacement
        replacement.start()

    def close(self) -> None:
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except Exception:
                pass
        for process in self._processes:
            process.join(timeout=5.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for queue in self._task_queues + [self._result_queue]:
            queue.close()
            queue.cancel_join_thread()

    def terminate(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()


def _assign_clients_to_workers(
    indexed: Sequence[Tuple[int, ClientHandle]], num_workers: int
) -> List[List[Tuple[int, ClientHandle]]]:
    """Deterministic client→worker assignment: stable first, then balanced.

    A client's home worker is ``client_id % num_workers``, so its cached
    shard is found again every round of a task; overfull homes then spill
    their excess onto the least-loaded workers so a round's wall clock stays
    one chunk deep.  Spilled clients may pay an extra shard shipment on the
    recipient worker — correctness never depends on where a chunk runs, only
    the IPC volume does.
    """
    buckets: List[List[Tuple[int, ClientHandle]]] = [[] for _ in range(num_workers)]
    for item in indexed:
        buckets[item[1].client_id % num_workers].append(item)
    target = -(-len(indexed) // num_workers)  # ceil
    overflow: List[Tuple[int, ClientHandle]] = []
    for bucket in buckets:
        while len(bucket) > target:
            overflow.append(bucket.pop())
    for item in overflow:
        recipient = min(range(num_workers), key=lambda w: (len(buckets[w]), w))
        buckets[recipient].append(item)
    return buckets


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #


class Executor:
    """Strategy for running one round's local updates; see the module docstring."""

    def run_round(
        self,
        method: FederatedMethod,
        model: Module,
        broadcast: BroadcastHandle,
        clients: Sequence[ClientHandle],
    ) -> List[ClientUpdate]:
        """Run every client's local update and return updates in client order."""
        raise NotImplementedError

    def run_client(
        self,
        method: FederatedMethod,
        model: Module,
        broadcast: BroadcastHandle,
        client: ClientHandle,
    ) -> ClientUpdate:
        """One client's local update — the temporal plane's dispatch unit.

        The event-driven async/buffered modes dispatch clients one arrival at
        a time in simulated-clock order; each dispatch is a single-client
        round on whichever executor is configured, so the pinned worker pool
        (shard cache, replica cache and all) keeps doing the compute while
        the scheduler decides ordering and staleness.
        """
        return self.run_round(method, model, broadcast, [client])[0]

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Sequential execution on the caller's model — the historical behaviour."""

    def run_round(
        self,
        method: FederatedMethod,
        model: Module,
        broadcast: BroadcastHandle,
        clients: Sequence[ClientHandle],
    ) -> List[ClientUpdate]:
        updates: List[ClientUpdate] = []
        for client in clients:
            model.load_state_dict(broadcast.state)
            updates.append(
                method.local_update(model, broadcast.state, broadcast.payload, client)
            )
        return updates


class BatchedExecutor(SerialExecutor):
    """Lockstep execution: one vectorized plan step trains the whole cohort.

    The ``kernel="batched"`` executor.  Eligible clients (see
    :mod:`repro.federated.lockstep`) are grouped by training schedule and
    trained through a single stacked plan replay per step; everything else
    degenerates to the serial path (which under a non-eager kernel is the
    tape kernel's trace-and-replay loop).  ``telemetry`` counts how the
    round's clients actually executed, for the kernel-plane bench.
    """

    def __init__(self) -> None:
        # Local import: lockstep pulls in the baselines package for its
        # eligibility check, which itself imports this module at load time.
        from repro.federated.lockstep import LockstepTelemetry

        self.telemetry = LockstepTelemetry()

    def run_round(
        self,
        method: FederatedMethod,
        model: Module,
        broadcast: BroadcastHandle,
        clients: Sequence[ClientHandle],
    ) -> List[ClientUpdate]:
        from repro.federated.lockstep import run_lockstep_round

        return run_lockstep_round(method, model, broadcast, clients, self.telemetry)


@dataclass(frozen=True)
class RoundIPC:
    """What one completed parallel round shipped to its workers.

    ``method_bytes`` and ``broadcast_bytes`` count the blob size times the
    number of worker messages that embedded it (each pinned queue copies the
    shared bytes), so all three byte fields are comparable measures of actual
    cross-process traffic.  ``num_messages`` is that message count, so
    ``broadcast_bytes / num_messages`` recovers the single broadcast blob
    length — under the loopback transport's ``identity`` codec that blob *is*
    the per-client broadcast wire frame, which is how the
    :class:`~repro.federated.communication.CommunicationLedger` and this log
    reconcile exactly where both observe the same traffic.  Failed rounds are
    not logged.
    """

    task_id: int
    num_clients: int
    method_bytes: int
    broadcast_bytes: int
    shard_bytes: int
    shards_shipped: int
    cache_hits: int
    num_messages: int = 0


@dataclass(frozen=True)
class EvalIPC:
    """What one :meth:`ParallelExecutor.run_eval` call shipped to its workers.

    Same byte conventions as :class:`RoundIPC`: ``method_bytes`` and
    ``broadcast_bytes`` count blob size times worker messages.  With the
    cache on, ``shard_bytes`` is non-zero only the first time a (task, slice)
    pair reaches its worker — once per run.  Failed calls are not logged.
    """

    num_jobs: int
    method_bytes: int
    broadcast_bytes: int
    shard_bytes: int
    shards_shipped: int
    cache_hits: int


class ParallelExecutor(Executor):
    """Pinned-worker-pool execution with a single-serialization broadcast and a
    per-worker shard cache (the client data plane; see the module docstring).

    ``num_workers`` defaults to the machine's CPU count.  The pool is created
    lazily on the first round and reused across rounds and tasks; call
    :meth:`close` (or use the executor as a context manager) to tear it down.
    Worker processes inherit the parent's compute dtype so float32 runs stay
    float32 inside the workers.

    A client's dataset ships only when the receiving worker does not already
    hold it — once per (client, task) instead of once per round; a respawned
    worker starts with an empty inventory, so its replayed chunk re-ships
    every shard.  :attr:`ipc_log` records one :class:`RoundIPC` entry per
    round.
    """

    #: Exit code of a fault-plane worker kill, distinguishable from real crashes.
    KILL_EXIT_CODE = 86

    def __init__(
        self,
        num_workers: Optional[int] = None,
        max_respawns: int = 0,
        kernel: str = "eager",
    ) -> None:
        self.num_workers = max(1, num_workers if num_workers else (os.cpu_count() or 1))
        #: Autograd kernel every train chunk runs under (``"eager"`` or
        #: ``"tape"``; the lockstep ``"batched"`` kernel is serial-only).
        self.kernel = kernel
        #: Self-healing budget: how many dead workers this executor may
        #: replace over its lifetime before a death propagates as
        #: :class:`WorkerDiedError`.  ``0`` (the default) disables healing —
        #: a worker death always raises, the fault-plane-off contract.
        self.max_respawns = max_respawns
        #: Workers respawned so far (the bench's recovery counter).
        self.respawns = 0
        self.ipc_log: List[RoundIPC] = []
        self.eval_ipc_log: List[EvalIPC] = []
        self._pool: Optional[_PinnedWorkerPool] = None
        self._inventories: List[Set[_ShardKey]] = []
        self._eval_inventories: List[Set[_ShardKey]] = []
        self._pending_kills: List[int] = []

    def request_worker_kill(self, worker_id: int) -> None:
        """Schedule a deterministic worker death before the next round's chunks.

        The fault plane's injection point: a ``"die"`` message is queued ahead
        of the worker's next chunk, so the process exits exactly like a
        crashed worker would — chunk lost, caches gone — and the healing
        collect path detects, respawns and replays.
        """
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(
                f"worker_id must be in [0, {self.num_workers}), got {worker_id}"
            )
        self._pending_kills.append(worker_id)

    def _build_train_message(
        self,
        worker_id: int,
        bucket: Sequence[Tuple[int, ClientHandle]],
        method_blob: bytes,
        broadcast_blob: bytes,
        dtype_name: str,
        task_id: int,
        stats: Dict[str, int],
    ) -> tuple:
        """Build one worker's train chunk, updating its mirrored inventory.

        A pure function of the round's blobs and the worker's inventory, so a
        healing replay after a respawn (inventory wiped to empty) rebuilds a
        chunk that re-ships every shard and reproduces the lost computation
        bit-for-bit.
        """
        # Mirror the worker's task-boundary eviction exactly: the worker
        # drops other-task entries when this chunk arrives, so the parent
        # must forget them at the same moment (and only for workers that
        # actually receive a chunk).
        inventory = {key for key in self._inventories[worker_id] if key[1] == task_id}
        self._inventories[worker_id] = inventory
        items: List[Tuple[int, ClientHandle, ShardRef]] = []
        shard_blobs: Dict[_ShardKey, bytes] = {}
        for index, client in bucket:
            ref = client.shard_ref()
            key = ref.cache_key
            if key in inventory:
                stats["cache_hits"] += 1
            elif key not in shard_blobs:
                blob = pickle.dumps(client.dataset, protocol=pickle.HIGHEST_PROTOCOL)
                shard_blobs[key] = blob
                stats["shard_bytes"] += len(blob)
                stats["shards_shipped"] += 1
                inventory.add(key)
            items.append((index, client.lighten(), ref))
        return (
            "train",
            (
                method_blob,
                broadcast_blob,
                items,
                shard_blobs,
                dtype_name,
                task_id,
                self.kernel,
            ),
        )

    def _build_eval_message(
        self,
        worker_id: int,
        bucket: Sequence[Tuple[int, EvalJob]],
        method_blob: bytes,
        broadcast_blob: bytes,
        dtype_name: str,
        stats: Dict[str, int],
    ) -> tuple:
        """Build one worker's eval chunk, updating its mirrored eval inventory."""
        inventory = self._eval_inventories[worker_id]
        items: List[Tuple[int, EvalSliceRef, int]] = []
        shard_blobs: Dict[_ShardKey, bytes] = {}
        for index, job in bucket:
            ref = job.slice_ref()
            key = ref.cache_key
            if key in inventory:
                stats["cache_hits"] += 1
            elif key not in shard_blobs:
                blob = pickle.dumps(job.dataset, protocol=pickle.HIGHEST_PROTOCOL)
                shard_blobs[key] = blob
                stats["shard_bytes"] += len(blob)
                stats["shards_shipped"] += 1
                # Mirror the worker's install-time replacement: a new
                # fingerprint for this (task, slice) pair supersedes the
                # stale entry on both sides.
                for stale in [k for k in inventory if k[:2] == key[:2]]:
                    inventory.discard(stale)
                inventory.add(key)
            items.append((index, ref, job.batch_size))
        return ("eval", (method_blob, broadcast_blob, items, shard_blobs, dtype_name))

    def _collect_healing(
        self,
        pool: _PinnedWorkerPool,
        pending_workers: Set[int],
        buckets: Dict[int, Sequence[tuple]],
        rebuild: Callable[[int], tuple],
    ) -> List[tuple]:
        """Collect every pending chunk, healing worker deaths within budget.

        A dead worker's already-reported peers are absorbed from the error;
        the dead worker is respawned, its mirrored inventories (both planes)
        forgotten — the fresh process holds nothing — and its chunk rebuilt
        and resubmitted.  The replay is bit-for-bit: a chunk is a pure
        function of the round's blobs.  Beyond ``max_respawns`` the
        :class:`WorkerDiedError` propagates with the lost client ids filled
        in.
        """
        outcomes: List[tuple] = []
        pending = set(pending_workers)
        while pending:
            try:
                outcomes.extend(pool.collect(pending))
                break
            except WorkerDiedError as error:
                outcomes.extend(error.partial_outcomes)
                pending -= {outcome[0] for outcome in error.partial_outcomes}
                dead = [worker_id for worker_id in error.worker_ids if worker_id in pending]
                pending -= set(dead)
                if self.respawns + len(dead) > self.max_respawns:
                    error.client_ids = sorted(
                        item.client_id
                        for worker_id in dead
                        for _, item in buckets.get(worker_id, [])
                        if isinstance(item, ClientHandle)
                    )
                    raise
                for worker_id in dead:
                    pool.respawn(worker_id)
                    self.respawns += 1
                    self._inventories[worker_id] = set()
                    self._eval_inventories[worker_id] = set()
                    pool.submit(worker_id, rebuild(worker_id))
                    pending.add(worker_id)
        return outcomes

    def _ensure_pool(self) -> _PinnedWorkerPool:
        if self._pool is None:
            # Prefer cheap fork workers only on Linux; macOS forks are unsafe
            # with live BLAS/Objective-C threads (hence its spawn default),
            # and the worker entry point is a module-level function, so the
            # platform default works everywhere else.
            if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                context = multiprocessing.get_context()
            self._pool = _PinnedWorkerPool(self.num_workers, context)
            self._inventories = [set() for _ in range(self.num_workers)]
            self._eval_inventories = [set() for _ in range(self.num_workers)]
        return self._pool

    def run_round(
        self,
        method: FederatedMethod,
        model: Module,
        broadcast: BroadcastHandle,
        clients: Sequence[ClientHandle],
    ) -> List[ClientUpdate]:
        if not clients:
            return []
        task_ids = {client.task_id for client in clients}
        if len(task_ids) > 1:
            # Task-boundary eviction (parent and worker) keys on the round's
            # single task id; a mixed round would evict freshly installed
            # shards mid-chunk.
            raise ValueError(
                f"a round's clients must share one task_id, got {sorted(task_ids)}"
            )
        pool = self._ensure_pool()
        method_blob = pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL)
        broadcast_blob = broadcast.serialized()
        dtype_name = get_default_dtype().name
        task_id = clients[0].task_id
        indexed = list(enumerate(clients))
        buckets = _assign_clients_to_workers(indexed, self.num_workers)
        # Build every chunk message before submitting anything, and tear the
        # pool down on any failure in the build/submit/collect path: a
        # partially-submitted round would leave results in flight for the
        # next round's collect to mis-consume, and a partially-updated
        # inventory would desynchronise from workers that never received
        # their chunk.  close() clears both.
        stats = {"shard_bytes": 0, "shards_shipped": 0, "cache_hits": 0}
        try:
            bucket_map: Dict[int, Sequence[tuple]] = {}
            messages: List[Tuple[int, tuple]] = []
            for worker_id, bucket in enumerate(buckets):
                if not bucket:
                    continue
                bucket_map[worker_id] = bucket
                messages.append(
                    (
                        worker_id,
                        self._build_train_message(
                            worker_id, bucket, method_blob, broadcast_blob, dtype_name, task_id, stats
                        ),
                    )
                )
            # Fault-plane worker kills fire ahead of the round's chunks, so
            # the victim dies before (or instead of) running its work — the
            # chunk is genuinely lost and the healing path must replay it.
            for victim in self._pending_kills:
                pool.submit(victim, ("die", self.KILL_EXIT_CODE))
            self._pending_kills = []
            for worker_id, message in messages:
                pool.submit(worker_id, message)
            outcomes = self._collect_healing(
                pool,
                {worker_id for worker_id, _ in messages},
                bucket_map,
                lambda worker_id: self._build_train_message(
                    worker_id, bucket_map[worker_id], method_blob, broadcast_blob, dtype_name, task_id, stats
                ),
            )
        except Exception:
            self.close()
            raise
        shard_bytes = stats["shard_bytes"]
        shards_shipped = stats["shards_shipped"]
        cache_hits = stats["cache_hits"]
        gathered: List[Tuple[int, ClientUpdate, Any]] = []
        failure: Optional[Tuple[Optional[bytes], str]] = None
        for worker_id, status, payload in outcomes:
            if status == "error":
                failure = failure if failure is not None else payload
                # The worker may have failed mid-install, so its shard cache
                # is in an unknown state; forget its inventory and re-ship
                # everything on its next chunk (re-installs are idempotent).
                self._inventories[worker_id].clear()
            else:
                gathered.extend(payload)
        if failure is not None:
            # All chunks were already collected above, so the queues are clean
            # and the pool stays reusable after the exception propagates.
            _raise_worker_error(failure)
        self.ipc_log.append(
            RoundIPC(
                task_id=task_id,
                num_clients=len(indexed),
                method_bytes=len(method_blob) * len(messages),
                broadcast_bytes=len(broadcast_blob) * len(messages),
                shard_bytes=shard_bytes,
                shards_shipped=shards_shipped,
                cache_hits=cache_hits,
                num_messages=len(messages),
            )
        )
        gathered.sort(key=lambda item: item[0])
        updates: List[ClientUpdate] = []
        for _, update, exported in gathered:
            updates.append(update)
            if exported is not None:
                method.import_client_state(update.client_id, exported)
        return updates

    def run_eval(
        self,
        method: FederatedMethod,
        broadcast: BroadcastHandle,
        jobs: Sequence[EvalJob],
    ) -> List[Tuple[int, int]]:
        """Score every evaluation job on the pool; return (correct, total) in job order.

        The evaluation plane's fan-out: jobs are pinned to workers by
        ``(task_id + slice_index) % num_workers`` — deterministic, so a slice
        lands on the same worker every call and its cached bytes are found
        again — and slice payloads are attached only for keys the receiving
        worker does not already hold (mirrored inventories, exactly like the
        training data plane).
        """
        if not jobs:
            return []
        pool = self._ensure_pool()
        method_blob = pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL)
        broadcast_blob = broadcast.serialized()
        dtype_name = get_default_dtype().name
        buckets: List[List[Tuple[int, EvalJob]]] = [[] for _ in range(self.num_workers)]
        for index, job in enumerate(jobs):
            buckets[(job.task_id + job.slice_index) % self.num_workers].append((index, job))
        # Same failure discipline as run_round: a partially-submitted call
        # would leave results in flight and inventories desynchronised, so
        # any build/submit/collect failure tears the pool down (close()
        # clears both planes' inventories).
        stats = {"shard_bytes": 0, "shards_shipped": 0, "cache_hits": 0}
        try:
            bucket_map: Dict[int, Sequence[tuple]] = {}
            messages: List[Tuple[int, tuple]] = []
            for worker_id, bucket in enumerate(buckets):
                if not bucket:
                    continue
                bucket_map[worker_id] = bucket
                messages.append(
                    (
                        worker_id,
                        self._build_eval_message(
                            worker_id, bucket, method_blob, broadcast_blob, dtype_name, stats
                        ),
                    )
                )
            for worker_id, message in messages:
                pool.submit(worker_id, message)
            outcomes = self._collect_healing(
                pool,
                {worker_id for worker_id, _ in messages},
                bucket_map,
                lambda worker_id: self._build_eval_message(
                    worker_id, bucket_map[worker_id], method_blob, broadcast_blob, dtype_name, stats
                ),
            )
        except Exception:
            self.close()
            raise
        shard_bytes = stats["shard_bytes"]
        shards_shipped = stats["shards_shipped"]
        cache_hits = stats["cache_hits"]
        gathered: List[Tuple[int, int, int]] = []
        failure: Optional[Tuple[Optional[bytes], str]] = None
        for worker_id, status, payload in outcomes:
            if status == "error":
                failure = failure if failure is not None else payload
                # The worker may have failed mid-install; forget its eval
                # inventory and re-ship on its next chunk (installs are
                # idempotent).
                self._eval_inventories[worker_id].clear()
            else:
                gathered.extend(payload)
        if failure is not None:
            _raise_worker_error(failure)
        self.eval_ipc_log.append(
            EvalIPC(
                num_jobs=len(jobs),
                method_bytes=len(method_blob) * len(messages),
                broadcast_bytes=len(broadcast_blob) * len(messages),
                shard_bytes=shard_bytes,
                shards_shipped=shards_shipped,
                cache_hits=cache_hits,
            )
        )
        gathered.sort(key=lambda item: item[0])
        return [(correct, total) for _, correct, total in gathered]

    def close(self) -> None:
        self._pending_kills = []
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._inventories = []
            self._eval_inventories = []

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            if self._pool is not None:
                self._pool.terminate()
                self._pool = None
        except Exception:
            pass


class ParallelEvalBackend(EvalBackend):
    """Fans a :class:`GlobalEvaluator`'s seen-task suite over a pinned pool.

    Each test set is cut once on the serial ``DataLoader``'s batch grid
    (:func:`batch_aligned_slices`, at most ``executor.num_workers`` slices)
    and cached — with its content fingerprints pre-computed — per
    (task, dtype, batch size), so repeated evaluations re-hash nothing and
    re-ship nothing.  Scoring runs through the *method's* own pickled
    inference path (``predict_logits``) inside the workers — the same
    computation the serial backend performs when the evaluator's
    ``predict_fn`` is the method's bound ``predict_logits`` (the simulation
    wires exactly that), so accuracies match the serial backend bit-for-bit.
    Any *other* ``predict_fn`` is rejected loudly: closures cannot cross the
    process boundary, and silently substituting the method path would break
    the backend contract.

    ``broadcast_fn`` supplies the round-style broadcast handle whose state the
    workers load before scoring (the simulation passes
    ``server.broadcast_view``, which shares any handle already cached within
    the current round; the simulation invalidates it around every
    server-facing method hook, so each evaluation serializes the state at
    most once).  Without one, a handle is built from the evaluated model's
    own state dict.
    """

    def __init__(
        self,
        executor: ParallelExecutor,
        method: FederatedMethod,
        broadcast_fn: Optional[Callable[[], BroadcastHandle]] = None,
    ) -> None:
        self.executor = executor
        self.method = method
        self.broadcast_fn = broadcast_fn
        self._slices: Dict[Tuple[int, str, int], List[ArrayDataset]] = {}

    def _slices_for(
        self, task_id: int, dataset: ArrayDataset, batch_size: int
    ) -> List[ArrayDataset]:
        # Content-keyed (the fingerprint covers dtype and values, and is
        # memoised on the dataset) so a backend reused across scenarios — or
        # across dtype switches — can never score stale slices.
        key = (task_id, dataset.fingerprint(), batch_size)
        if key not in self._slices:
            # One slicing at a time per task, like the evaluator's
            # converted-test cache: a content/dtype switch evicts the task's
            # stale slicing, bounding the cache to one copy of the suite.
            for stale in [k for k in self._slices if k[0] == task_id and k != key]:
                del self._slices[stale]
            slices = batch_aligned_slices(dataset, batch_size, self.executor.num_workers)
            for piece in slices:
                piece.fingerprint()  # pay the per-slice content hash once
            self._slices[key] = slices
        return self._slices[key]

    def evaluate(
        self,
        model: Module,
        pairs: Sequence[Tuple[Task, ArrayDataset]],
        batch_size: int,
        predict_fn: Optional[PredictFn] = None,
    ) -> List[float]:
        if predict_fn != self.method.predict_logits:
            # Workers score through the pickled method's own predict_logits.
            # A caller-supplied closure cannot cross the process boundary, and
            # None would make the serial backend score plain model(images) —
            # which diverges from predict_logits for prompt-based methods —
            # so anything but the method's own bound hook is rejected loudly
            # rather than silently breaking the backend bit-for-bit contract.
            raise ValueError(
                "ParallelEvalBackend evaluates through its method's own "
                "predict_logits inside worker processes; construct the "
                "GlobalEvaluator with predict_fn=method.predict_logits (the "
                "simulation does), or use SerialEvalBackend for custom "
                "inference hooks"
            )
        broadcast = (
            self.broadcast_fn()
            if self.broadcast_fn is not None
            else BroadcastHandle(model.state_dict(), {})
        )
        jobs: List[EvalJob] = []
        spans: List[Tuple[int, int]] = []
        for task, dataset in pairs:
            slices = self._slices_for(task.task_id, dataset, batch_size)
            start = len(jobs)
            jobs.extend(
                EvalJob(task_id=task.task_id, slice_index=index, dataset=piece, batch_size=batch_size)
                for index, piece in enumerate(slices)
            )
            spans.append((start, len(jobs)))
        counts = self.executor.run_eval(self.method, broadcast, jobs)
        accuracies: List[float] = []
        for start, end in spans:
            correct = sum(count for count, _ in counts[start:end])
            total = sum(total for _, total in counts[start:end])
            accuracies.append(correct / total)
        return accuracies


def build_executor(
    executor: str = "serial",
    num_workers: int = 0,
    max_respawns: int = 0,
    kernel: str = "eager",
) -> Executor:
    """Construct an executor from the :class:`FederatedConfig` knobs."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose one of {KERNELS}")
    if kernel == "batched":
        if executor != "serial":
            raise ValueError(
                "kernel='batched' requires executor='serial': lockstep already "
                "vectorizes the cohort, a worker pool underneath it would "
                "shard the very groups it batches"
            )
        return BatchedExecutor()
    if executor == "serial":
        return SerialExecutor()
    if executor == "parallel":
        return ParallelExecutor(num_workers, max_respawns=max_respawns, kernel=kernel)
    raise ValueError(f"unknown executor {executor!r}; choose 'serial' or 'parallel'")


__all__ = [
    "Executor",
    "SerialExecutor",
    "BatchedExecutor",
    "ParallelExecutor",
    "ParallelEvalBackend",
    "RoundIPC",
    "EvalIPC",
    "EvalJob",
    "EvalSliceRef",
    "WorkerDiedError",
    "batch_aligned_slices",
    "build_executor",
]
