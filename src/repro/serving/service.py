"""Serving front end: bounded queue, micro-batching, workers, backpressure.

The :class:`ServingFrontEnd` is the request-facing layer above the
:class:`~repro.serving.engine.InferenceEngine`.  Clients submit single
samples; a worker blocks for one request, batches it with whatever is already
queued (up to ``max_batch``, one engine call per sample shape and dtype) and
serves at once, answering every request with a :class:`ServedResponse`
carrying the logits row, the model version that produced it, and the
request's queue-to-response latency.

Delivery guarantees:

* **Backpressure, not silent loss.**  The request queue is bounded; a full
  queue rejects the submit *synchronously* with a typed
  :class:`QueueFullError`.  Every accepted request is answered exactly once —
  with a result, or with the serving exception — including requests still
  queued when :meth:`stop` is called (the stop sentinel lands behind them in
  FIFO order, so shutdown drains instead of dropping).
* **Version coherence.**  Hot swaps install between batches (the engine's
  atomic-snapshot contract), so all rows of one micro-batch carry the same
  version tag, and a publish notification (:meth:`notify_publish`) is folded
  in at the next batch boundary — in-flight work always finishes on the
  version it started with.

Telemetry is per version: requests, batches, batch-size distribution, p50/p95
latency — plus rejected-submit and hot-swap counters for the whole front end.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.serving.engine import InferenceEngine
from repro.utils.logging_utils import get_logger

logger = get_logger(__name__)

_STOP = object()
#: Per-version latency samples kept for percentile telemetry; enough for every
#: test/bench workload while bounding a long-lived front end's memory.
_MAX_LATENCY_SAMPLES = 65536


class QueueFullError(RuntimeError):
    """The bounded request queue is full: backpressure, try again later."""


@dataclass(frozen=True)
class ServedResponse:
    """One answered request: logits row, producing version, measured latency."""

    version: int
    logits: np.ndarray
    latency: float


class _Request:
    __slots__ = ("sample", "future", "enqueued")

    def __init__(self, sample: np.ndarray) -> None:
        self.sample = sample
        self.future: "Future[ServedResponse]" = Future()
        self.enqueued = time.monotonic()


class _VersionStats:
    __slots__ = ("requests", "batches", "batch_size_sum", "max_batch", "latencies")

    def __init__(self) -> None:
        self.requests = 0
        self.batches = 0
        self.batch_size_sum = 0
        self.max_batch = 0
        self.latencies: List[float] = []


class ServingFrontEnd:
    """Concurrent micro-batching front end over one :class:`InferenceEngine`."""

    def __init__(
        self,
        engine: InferenceEngine,
        max_queue: int = 256,
        max_batch: int = 8,
        num_workers: int = 1,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.engine = engine
        self.max_batch = max_batch
        self.num_workers = num_workers
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=max_queue)
        self._publish_pending = threading.Event()
        self._workers: List[threading.Thread] = []
        self._accepting = False
        self._stats_lock = threading.Lock()
        self._per_version: Dict[int, _VersionStats] = {}
        self._rejected = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingFrontEnd":
        """Spawn the worker threads; idempotent."""
        if self._workers:
            self._accepting = True
            return self
        self._accepting = True
        for index in range(self.num_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serving-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        return self

    def stop(self) -> None:
        """Drain and shut down: every accepted request is answered first.

        New submits are refused immediately; one stop sentinel per worker is
        enqueued *behind* all accepted requests (FIFO), so workers serve the
        backlog and then exit.  Idempotent.
        """
        self._accepting = False
        workers, self._workers = self._workers, []
        for _ in workers:
            self._queue.put(_STOP)
        for worker in workers:
            worker.join()

    def __enter__(self) -> "ServingFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(self, sample: np.ndarray) -> "Future[ServedResponse]":
        """Enqueue one sample; returns a future resolving to its response.

        Raises :class:`QueueFullError` when the bounded queue is full and
        :class:`RuntimeError` after :meth:`stop` — a request is either
        accepted (and then always answered) or refused loudly, never dropped.
        """
        if not self._accepting:
            raise RuntimeError("serving front end is stopped; no new requests accepted")
        request = _Request(np.asarray(sample))
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            with self._stats_lock:
                self._rejected += 1
            raise QueueFullError(
                f"request queue is full ({self._queue.maxsize} pending); "
                "retry after the backlog drains"
            ) from None
        return request.future

    def predict(self, sample: np.ndarray, timeout: Optional[float] = None) -> ServedResponse:
        """Blocking convenience wrapper: submit one sample, wait for its response."""
        return self.submit(sample).result(timeout)

    def notify_publish(self) -> None:
        """Signal that the registry advanced; folded in at the next batch boundary."""
        self._publish_pending.set()

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            # Hot swap strictly between batches: the refresh lands before this
            # batch opens, never inside one.
            if self._publish_pending.is_set():
                self._publish_pending.clear()
                self._refresh()
            # The batch is what is already queued: never wait for more.
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    # Another worker's (or our own) shutdown sentinel: re-post
                    # it so the sentinel count stays exact, flush what we have.
                    self._queue.put(_STOP)
                    break
                batch.append(nxt)
            # One engine call per sample shape and dtype: a sample that cannot
            # be stacked with its batch-mates is served, or fails, on its own.
            groups: Dict[Any, List[_Request]] = {}
            for request in batch:
                key = (request.sample.shape, request.sample.dtype)
                groups.setdefault(key, []).append(request)
            for group in groups.values():
                self._serve_batch(group)

    def _refresh(self) -> None:
        try:
            self.engine.refresh()
        except Exception:  # pragma: no cover - registry races surface in tests
            logger.exception("serving refresh failed; keeping the current version")

    def _serve_batch(self, batch: List[_Request]) -> None:
        try:
            served = self.engine.predict(np.stack([request.sample for request in batch]))
        except Exception as error:
            for request in batch:
                request.future.set_exception(error)
            return
        now = time.monotonic()
        for row, request in enumerate(batch):
            request.future.set_result(
                ServedResponse(
                    version=served.version,
                    logits=np.asarray(served.logits[row]),
                    latency=now - request.enqueued,
                )
            )
        with self._stats_lock:
            stats = self._per_version.setdefault(served.version, _VersionStats())
            stats.requests += len(batch)
            stats.batches += 1
            stats.batch_size_sum += len(batch)
            stats.max_batch = max(stats.max_batch, len(batch))
            if len(stats.latencies) < _MAX_LATENCY_SAMPLES:
                stats.latencies.extend(now - request.enqueued for request in batch)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def telemetry(self) -> Dict[str, Any]:
        """Point-in-time serving statistics, keyed per model version."""
        with self._stats_lock:
            versions: Dict[int, Dict[str, float]] = {}
            total_requests = 0
            for version, stats in sorted(self._per_version.items()):
                latencies = np.asarray(stats.latencies, dtype=np.float64)
                versions[version] = {
                    "requests": stats.requests,
                    "batches": stats.batches,
                    "mean_batch_size": stats.batch_size_sum / max(stats.batches, 1),
                    "max_batch_size": stats.max_batch,
                    "p50_latency": float(np.percentile(latencies, 50)) if latencies.size else 0.0,
                    "p95_latency": float(np.percentile(latencies, 95)) if latencies.size else 0.0,
                }
                total_requests += stats.requests
            return {
                "versions": versions,
                "total_requests": total_requests,
                "rejected": self._rejected,
                "swap_count": self.engine.swap_count,
                "current_version": self.engine.current_version,
            }


__all__ = ["QueueFullError", "ServedResponse", "ServingFrontEnd"]
