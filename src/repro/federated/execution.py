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

The data plane
--------------
The pool has two jobs — every selected client's local update each round, and
the paper's evaluation protocol (Sec. V-A), which scores the global model on
*every* seen domain after each learning step: an O(T²) forward-pass workload
per run (O(T·R) with mid-task ``eval_every`` snapshots) absorbed between
training rounds.  Both ship datasets that dominate IPC yet rarely change
(client shards at task boundaries, test sets never), so both go through one
per-worker cache instead of being re-pickled with every chunk:

* work units cross the boundary *light* (:meth:`ClientHandle.lighten` /
  :meth:`EvalJob.lighten` plus a :class:`~repro.federated.client.ShardRef`),
  and workers rebind the dataset from the module-level ``_WORKER_SHARDS``
  cache keyed by ``ShardRef.identity`` = ``("train", task, client)`` or
  ``("eval", task, slice)``;
* workers are *pinned*: each talks to the parent over its own duplex pipe
  (:class:`_PinnedWorkerPool`), so the parent knows exactly which worker runs
  which chunk and mirrors every worker's inventory.  That inventory is the
  cache-miss handshake — dataset bytes are attached to a chunk only for
  identities the receiving worker does not hold at the current fingerprint,
  i.e. once per (client, task) rather than once per round, and once per run
  for a test-set slice;
* the fingerprint invalidates stale entries whenever a dataset's content
  changes — in-between clients concatenating their previous task's shard, a
  dtype switch on a long-lived pool — by replacing the held entry on both
  sides, and both sides evict other tasks' *training* shards when a round for
  a new task arrives, bounding worker memory to one task's shards plus one
  copy of the test suite;
* :meth:`ParallelExecutor.run_eval` fans :class:`EvalJob` units — one
  (seen-task, batch-aligned test-shard slice) each — over the workers and
  reassembles per-slice *integer* correct/total counts in job order.  Slices
  are cut on the serial ``DataLoader``'s batch grid
  (:func:`batch_aligned_slices`), so every worker runs exactly the batches
  the serial path would run and the summed counts reproduce serial
  accuracies bit-for-bit; :class:`ParallelEvalBackend` adapts the fan-out to
  the :class:`repro.continual.evaluator.GlobalEvaluator` backend interface.

Accounting of everything shipped (method, broadcast, dataset bytes,
hits/misses) is appended per round to :attr:`ParallelExecutor.ipc_log` as
:class:`RoundIPC` records and per evaluation call to
:attr:`ParallelExecutor.eval_ipc_log` as :class:`EvalIPC` records;
``benchmarks/bench_round_parallel.py`` and ``benchmarks/bench_eval_parallel.py``
turn those into the ``round_ipc`` and ``eval_plane`` sections of
``BENCH_round.json``.

Both executors hand every client the *same* read-only broadcast state, so no
per-client copy of the model happens anywhere on the hot path.

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
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

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

#: Per-worker-process cache of the datasets both planes work on, keyed by
#: ``ShardRef.identity`` and holding ``(fingerprint, dataset)``.  Entries are
#: installed from the bytes the parent attaches on a cache miss; a new
#: fingerprint for a held identity replaces the stale entry.  Training shards
#: are evicted when a train chunk for a different task arrives (shards are
#: immutable within a task, so nothing else can invalidate them mid-task);
#: test-set slices never change within a run and live for the pool's lifetime.
_WORKER_SHARDS: Dict[Tuple[str, int, int], Tuple[str, ArrayDataset]] = {}


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
) -> List[Tuple[int, ClientUpdate, Any]]:
    """Train one worker's share of the round's clients.

    Receives the round-shared data (method + broadcast) as pre-pickled blobs:
    the parent serialized each exactly once and every chunk reuses the same
    bytes.  Returns ``(selection_index, update, exported_client_state)``
    triples so the parent can restore selection order and merge method state.
    """
    set_default_dtype(dtype_name)
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


def _install_shards(shard_blobs: Dict[ShardRef, bytes]) -> None:
    """Unpack the dataset payloads the parent attached for this worker's misses.

    Keyed by identity, so a fresh fingerprint for an already-held identity
    replaces the stale entry: the cache stays bounded by one copy of each
    dataset even when a long-lived pool switches compute dtype between
    simulations.
    """
    for ref, blob in shard_blobs.items():
        _WORKER_SHARDS[ref.identity] = (ref.fingerprint, pickle.loads(blob))


def _evict_stale_shards(held: Dict[Tuple[str, int, int], Any], task_id: int) -> None:
    """Drop other tasks' training shards (they only change at task boundaries)
    from a worker's cache or the parent's mirror of it — one rule for both, so
    the two cannot drift; test-set slices are never evicted."""
    for identity in [i for i in held if i[0] == "train" and i[1] != task_id]:
        del held[identity]


def _resolve_chunk(items: Sequence[Tuple[int, ShardRef, Any]]) -> List[Tuple[int, Any]]:
    """Rebind each light work unit's dataset from the worker shard cache."""
    resolved: List[Tuple[int, Any]] = []
    for index, ref, work in items:
        fingerprint, shard = _WORKER_SHARDS.get(ref.identity, (None, None))
        if fingerprint != ref.fingerprint:
            raise RuntimeError(
                f"worker shard cache miss for {ref.plane} task {ref.task_id} "
                f"unit {ref.unit}: the parent's inventory claims this dataset "
                "was already shipped to this worker — the parent's inventory "
                "mirror and worker install/eviction are out of sync"
            )
        if len(shard) != ref.num_samples:
            raise RuntimeError(
                f"worker shard cache corruption for {ref.plane} task {ref.task_id} "
                f"unit {ref.unit}: cached dataset has {len(shard)} samples but "
                f"the reference expects {ref.num_samples}"
            )
        resolved.append((index, replace(work, dataset=shard)))
    return resolved


@dataclass(frozen=True)
class EvalJob:
    """One unit of evaluation work: score one slice of one seen task's test set."""

    task_id: int
    slice_index: int
    dataset: ArrayDataset
    batch_size: int

    def shard_ref(self) -> ShardRef:
        """Light identity of this job's slice for the data plane."""
        return ShardRef(
            "eval", self.task_id, self.slice_index, self.dataset.fingerprint(), len(self.dataset)
        )

    def lighten(self) -> "EvalJob":
        """A copy of this job without its slice payload (see :meth:`ClientHandle.lighten`)."""
        return replace(self, dataset=None)


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


def _run_eval_chunk(
    method_blob: bytes,
    broadcast_blob: bytes,
    indexed_jobs: Sequence[Tuple[int, EvalJob]],
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
    for index, job in indexed_jobs:
        correct = count_correct(
            model, job.dataset, batch_size=job.batch_size, predict_fn=method.predict_logits
        )
        results.append((index, correct, len(job.dataset)))
    return results


#: What a worker runs for each chunk kind, on the chunk's resolved work units.
_CHUNK_RUNNERS: Dict[str, Callable[..., List[tuple]]] = {
    "train": _run_client_chunk,
    "eval": _run_eval_chunk,
}


class WorkerDiedError(RuntimeError):
    """A pinned pool worker died without reporting its chunk's result.

    Raised whether or not fault injection is active, once every other pending
    worker has reported and the respawn budget cannot cover the deaths.
    Carries which workers died with which exit codes and the client ids whose
    updates were lost with them.
    """

    def __init__(
        self,
        worker_ids: Sequence[int],
        exit_codes: Sequence[Optional[int]],
        client_ids: Sequence[int] = (),
    ) -> None:
        super().__init__()
        self.worker_ids = list(worker_ids)
        self.exit_codes = list(exit_codes)
        self.client_ids = list(client_ids)

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


def _worker_main(conn) -> None:
    """Entry point of one pinned worker; loops until the ``None`` sentinel.

    Messages are ``(kind, payload)`` pairs with one payload shape: ``"train"``
    chunks run local updates, ``"eval"`` chunks score test-set slices, both on
    datasets resolved from the worker's shard cache and on the worker's model
    replica cache, so evaluation jobs reuse the replica the training rounds
    already built.  Only a train chunk names a ``task_id``: its arrival is the
    task-boundary eviction point.  Every chunk gets exactly one report on the
    same pipe.  ``Connection.send`` pickles before it writes a byte, so a
    result that cannot be pickled becomes the chunk's ``"error"`` report.
    """
    while True:
        try:
            message = conn.recv()
        except EOFError:  # the parent is gone
            return
        if message is None:
            return
        kind, payload = message
        try:
            runner = _CHUNK_RUNNERS.get(kind)
            if runner is None:
                raise RuntimeError(f"unknown worker message kind {kind!r}")
            method_blob, broadcast_blob, items, shard_blobs, task_id, dtype_name = payload
            _install_shards(shard_blobs)
            if task_id is not None:
                _evict_stale_shards(_WORKER_SHARDS, task_id)
            results = runner(method_blob, broadcast_blob, _resolve_chunk(items), dtype_name)
            conn.send(("ok", results))
        except BaseException as exc:  # ship the failure instead of dying silently
            conn.send(("error", _encode_error(exc)))


class _PinnedWorkerPool:
    """``num_workers`` long-lived processes, each on its own duplex pipe.

    ``concurrent.futures.ProcessPoolExecutor`` hands tasks to whichever worker
    grabs them first, so a parent can never know which process holds which
    cached shard.  Pinning each worker to its own pipe makes the worker-side
    caches addressable: the parent decides which worker runs which chunk, so
    it can mirror every worker's shard inventory exactly and attach shard
    bytes only for genuine misses.  No lock or feeder thread is shared, so a
    worker's death can lose only its own report.
    """

    def __init__(self, num_workers: int, context) -> None:
        self._context = context
        self._conns: List[Any] = [None] * num_workers
        self._processes: List[Any] = [None] * num_workers
        for worker_id in range(num_workers):
            self._start(worker_id)

    def _start(self, worker_id: int) -> None:
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(target=_worker_main, args=(child_conn,), daemon=True)
        process.start()
        # Only the worker may hold its end: its exit must read as EOF here.
        child_conn.close()
        self._conns[worker_id] = conn
        self._processes[worker_id] = process

    def submit(self, worker_id: int, message: tuple) -> None:
        try:
            self._conns[worker_id].send(message)
        except ConnectionError:
            pass  # the worker is dead; collect reports it

    def collect(self, pending: Set[int]) -> List[Tuple[int, str, Any]]:
        """Wait until at least one pending worker is ready; report each ready one.

        Blocks on the pending workers' pipes and process sentinels, with no
        timeout: a report or a death wakes it.  Each ready worker comes back
        as ``(worker_id, status, payload)``: ``"ok"`` / ``"error"`` with the
        worker's report, or ``"dead"`` with the exit code when the process
        ended without sending a whole message.  An idle worker's death is not
        looked at until a chunk is submitted to it.
        """
        owner = {}
        for worker_id in pending:
            owner[self._conns[worker_id]] = worker_id
            owner[self._processes[worker_id].sentinel] = worker_id
        reports: List[Tuple[int, str, Any]] = []
        for worker_id in sorted({owner[handle] for handle in wait(list(owner))}):
            try:
                status, payload = self._conns[worker_id].recv()
            except (EOFError, OSError):  # no message, or its tail, ever came
                process = self._processes[worker_id]
                process.join()
                reports.append((worker_id, "dead", process.exitcode))
            else:
                reports.append((worker_id, status, payload))
        return reports

    def kill(self, worker_id: int) -> None:
        """Kill a worker outright (the fault plane's injected crash)."""
        self._processes[worker_id].kill()
        self._processes[worker_id].join()

    def respawn(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh process on a fresh pipe.

        The replacement starts with empty module-level caches, which is why
        the healing caller must forget the worker's mirrored inventory before
        resubmitting.
        """
        self._conns[worker_id].close()
        self._start(worker_id)

    def close(self) -> None:
        for worker_id in range(len(self._conns)):
            self.submit(worker_id, None)
        for process in self._processes:
            process.join(timeout=5.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._conns:
            conn.close()

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


@dataclass(frozen=True)
class RoundIPC:
    """What one completed parallel round shipped to its workers.

    ``method_bytes`` and ``broadcast_bytes`` count the blob size times the
    number of worker messages that embedded it (each worker's pipe carries its
    own copy of the shared bytes; a chunk replayed to a respawned worker is
    one more message), so all three byte fields are comparable measures of
    actual cross-process traffic.  ``num_messages`` is that message count, so
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
    ``broadcast_bytes`` count blob size times ``num_messages``.
    ``shard_bytes`` is non-zero only the first time a (task, slice) pair
    reaches its worker — once per run.  Failed calls are not logged.
    """

    num_jobs: int
    method_bytes: int
    broadcast_bytes: int
    shard_bytes: int
    shards_shipped: int
    cache_hits: int
    num_messages: int = 0


class ParallelExecutor(Executor):
    """Pinned-worker-pool execution with a single-serialization broadcast and a
    per-worker shard cache (the data plane; see the module docstring).

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

    def __init__(
        self,
        num_workers: Optional[int] = None,
        max_respawns: int = 0,
    ) -> None:
        self.num_workers = max(1, num_workers if num_workers else (os.cpu_count() or 1))
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
        #: Per worker, what its shard cache holds: identity -> fingerprint.
        self._inventories: List[Dict[Tuple[str, int, int], str]] = []
        self._pending_kills: List[int] = []

    def request_worker_kill(self, worker_id: int) -> None:
        """Schedule a deterministic worker death before the next round's chunks.

        The fault plane's injection point: the next training round kills the
        process just before its chunks go out, so the victim's chunk meets a
        dead pipe exactly as after a real crash — chunk lost, caches gone —
        and the healing collect path detects, respawns and replays.
        """
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(
                f"worker_id must be in [0, {self.num_workers}), got {worker_id}"
            )
        self._pending_kills.append(worker_id)

    def _build_message(
        self,
        kind: str,
        worker_id: int,
        bucket: Sequence[Tuple[int, Any]],
        method_blob: bytes,
        broadcast_blob: bytes,
        dtype_name: str,
        task_id: Optional[int],
        stats: Dict[str, int],
    ) -> tuple:
        """Build one worker's chunk, updating its mirrored inventory.

        A pure function of the call's blobs and the worker's inventory, so a
        healing replay after a respawn (inventory wiped to empty) rebuilds a
        chunk that re-ships every dataset and reproduces the lost computation
        bit-for-bit.  Every chunk built is a chunk submitted — first send or
        replay — so this is also where its traffic is counted.
        """
        inventory = self._inventories[worker_id]
        if task_id is not None:
            # Mirror the worker's task-boundary eviction exactly: the worker
            # drops other-task training shards when this chunk arrives, so
            # the parent must forget them at the same moment (and only for
            # workers that actually receive a chunk).
            _evict_stale_shards(inventory, task_id)
        items: List[Tuple[int, ShardRef, Any]] = []
        shard_blobs: Dict[ShardRef, bytes] = {}
        for index, work in bucket:
            ref = work.shard_ref()
            if inventory.get(ref.identity) == ref.fingerprint:
                stats["cache_hits"] += 1
            else:
                blob = pickle.dumps(work.dataset, protocol=pickle.HIGHEST_PROTOCOL)
                shard_blobs[ref] = blob
                stats["shard_bytes"] += len(blob)
                stats["shards_shipped"] += 1
                # Mirror the worker's install: a new fingerprint for a held
                # identity supersedes the stale entry on both sides.
                inventory[ref.identity] = ref.fingerprint
            items.append((index, ref, work.lighten()))
        stats["num_messages"] += 1
        stats["method_bytes"] += len(method_blob)
        stats["broadcast_bytes"] += len(broadcast_blob)
        return (kind, (method_blob, broadcast_blob, items, shard_blobs, task_id, dtype_name))

    def _collect_healing(
        self,
        pool: _PinnedWorkerPool,
        chunks: Dict[int, Sequence[Tuple[int, Any]]],
        rebuild: Callable[[int], tuple],
    ) -> List[tuple]:
        """Collect one report per submitted chunk, healing worker deaths within budget.

        A dead worker is respawned, its mirrored inventory (both planes)
        forgotten — the fresh process holds nothing — and its chunk rebuilt
        and resubmitted.  The replay is bit-for-bit: a chunk is a pure
        function of the round's blobs.  Beyond ``max_respawns`` the deaths
        raise :class:`WorkerDiedError`, with the lost client ids, once every
        other pending worker has reported.
        """
        outcomes: List[tuple] = []
        lost: Dict[int, Optional[int]] = {}  # dead worker -> exit code
        pending = set(chunks)
        while pending:
            for worker_id, status, payload in pool.collect(pending):
                pending.discard(worker_id)
                if status != "dead":
                    outcomes.append((worker_id, status, payload))
                elif self.respawns < self.max_respawns:
                    pool.respawn(worker_id)
                    self.respawns += 1
                    self._inventories[worker_id] = {}
                    pool.submit(worker_id, rebuild(worker_id))
                    pending.add(worker_id)
                else:
                    lost[worker_id] = payload
        if lost:
            raise WorkerDiedError(
                list(lost),
                list(lost.values()),
                sorted(
                    item.client_id
                    for worker_id in lost
                    for _, item in chunks[worker_id]
                    if isinstance(item, ClientHandle)
                ),
            )
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
            self._inventories = [{} for _ in range(self.num_workers)]
        return self._pool

    def _fan_out(
        self,
        kind: str,
        method: FederatedMethod,
        broadcast: BroadcastHandle,
        buckets: Sequence[Sequence[Tuple[int, Any]]],
        task_id: Optional[int] = None,
    ) -> Tuple[List[tuple], Dict[str, int]]:
        """Run one chunk per non-empty bucket; return the workers' result
        tuples in work-unit index order, and what the call shipped.

        ``buckets[w]`` holds worker ``w``'s ``(index, work unit)`` pairs.  The
        method and the broadcast are serialized once and every chunk reuses
        the same bytes.
        """
        pool = self._ensure_pool()
        method_blob = pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL)
        broadcast_blob = broadcast.serialized()
        dtype_name = get_default_dtype().name
        chunks = {worker_id: bucket for worker_id, bucket in enumerate(buckets) if bucket}
        # The traffic counters RoundIPC and EvalIPC share, filled as chunks are built.
        stats = {
            "num_messages": 0, "method_bytes": 0, "broadcast_bytes": 0,
            "shard_bytes": 0, "shards_shipped": 0, "cache_hits": 0,
        }  # fmt: skip

        def build(worker_id: int) -> tuple:
            return self._build_message(
                kind, worker_id, chunks[worker_id], method_blob, broadcast_blob, dtype_name, task_id, stats
            )

        # Build every chunk message before submitting anything, and tear the
        # pool down on any failure in the build/submit/collect path —
        # KeyboardInterrupt included: a partially-collected call would leave
        # reports in flight for the next call's collect to mis-consume, and a
        # partially-updated inventory would desynchronise from workers that
        # never received their chunk.  close() clears both.
        try:
            messages = [(worker_id, build(worker_id)) for worker_id in chunks]
            if kind == "train":
                # Fault-plane worker kills fire ahead of the round's chunks, so
                # the victim dies before (or instead of) running its work — the
                # chunk is genuinely lost and the healing path must replay it.
                for victim in self._pending_kills:
                    pool.kill(victim)
                self._pending_kills = []
            for worker_id, message in messages:
                pool.submit(worker_id, message)
            outcomes = self._collect_healing(pool, chunks, build)
        except BaseException:
            self.close()
            raise
        gathered: List[tuple] = []
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
            # All chunks were already collected above, so the pipes are clean
            # and the pool stays reusable after the exception propagates.
            _raise_worker_error(failure)
        gathered.sort(key=lambda item: item[0])
        return gathered, stats

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
        task_id = clients[0].task_id
        buckets = _assign_clients_to_workers(list(enumerate(clients)), self.num_workers)
        gathered, stats = self._fan_out("train", method, broadcast, buckets, task_id)
        self.ipc_log.append(RoundIPC(task_id=task_id, num_clients=len(clients), **stats))
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

        Jobs are pinned to workers by ``(task_id + slice_index) % num_workers``
        — deterministic, so a slice lands on the same worker every call and
        its cached bytes are found again.
        """
        if not jobs:
            return []
        buckets: List[List[Tuple[int, EvalJob]]] = [[] for _ in range(self.num_workers)]
        for index, job in enumerate(jobs):
            buckets[(job.task_id + job.slice_index) % self.num_workers].append((index, job))
        gathered, stats = self._fan_out("eval", method, broadcast, buckets)
        self.eval_ipc_log.append(EvalIPC(num_jobs=len(jobs), **stats))
        return [(correct, total) for _, correct, total in gathered]

    def close(self) -> None:
        self._pending_kills = []
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._inventories = []

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

    The workers load the state of the evaluator's ``version`` token, a
    round-style broadcast handle (the simulation passes
    ``server.broadcast_view()``, which shares the handle of the current model
    version — the server drops it whenever its state is assigned — so each
    model version is serialized at most once, however many rounds and
    evaluations see it).  Without one, a handle is built from the evaluated
    model's own state dict.
    """

    def __init__(self, executor: ParallelExecutor, method: FederatedMethod) -> None:
        self.executor = executor
        self.method = method
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
        version: Optional[BroadcastHandle] = None,
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
        broadcast = version if version is not None else BroadcastHandle(model.state_dict(), {})
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
) -> Executor:
    """Construct an executor from the :class:`FederatedConfig` knobs."""
    if executor == "serial":
        return SerialExecutor()
    if executor == "parallel":
        return ParallelExecutor(num_workers, max_respawns=max_respawns)
    raise ValueError(f"unknown executor {executor!r}; choose 'serial' or 'parallel'")


__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ParallelEvalBackend",
    "RoundIPC",
    "EvalIPC",
    "EvalJob",
    "WorkerDiedError",
    "batch_aligned_slices",
    "build_executor",
]
