"""The benchmark's metric tables and how the per-layer values are derived.

``END_TO_END`` and ``PER_LAYER`` are the single definition of every metric
name, unit and direction; ``BENCHMARK.json`` mirrors them (``test_harness.py``
checks that it does).  Per-layer values come from one traced unit: span self
times, call counts, counts taken at the wrapped boundaries, and the counters
the program itself publishes (ledger, ipc log, fault stats, telemetry).
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional, Sequence, Tuple

import stats
from tracer import END, NAME, START, inclusive_time, self_times, within

# name, unit, better, regression bound (share of the parent's median)
#
# Bounds follow the issue's rule, max(0.10, 2 x measured IQR/median), taken
# over the noisiest workload because the contract allows one bound per metric
# and caps it at 0.25: the timings' IQR across ten seeds is 5-14% on the
# reference box even after machine-speed normalisation, so they sit at the cap;
# peak RSS moves by 1-4% and wire bytes by under 0.01%.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("run_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("wire_bytes", "bytes", "lower", 0.005),
    ("setup_s", "s", "lower", 0.25),
)

# Kinds: "self"/"calls"/"inclusive" read spans of the timed region named by
# `key`; "setup_self" reads the set-up region; "count" reads a counter (taken
# at a wrapped boundary or published by the program); "derived" is computed
# in `layer_metrics` below.
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("datasets.synth_s", "s", "lower", "self", "datasets.synth"),
    ("datasets.synth_calls", "count", "lower", "calls", "datasets.synth"),
    ("datasets.partition_s", "s", "lower", "self", "datasets.partition"),
    ("continual.eval_s", "s", "lower", "self", "continual.eval"),
    ("continual.eval_calls", "count", "lower", "calls", "continual.eval"),
    ("continual.predict_s", "s", "lower", "self", "continual.predict"),
    ("continual.predict_samples", "count", "higher", "count", "continual.predict_samples"),
    ("method.local_update_s", "s", "lower", "inclusive", "method.local_update"),
    ("method.local_update_calls", "count", "lower", "calls", "method.local_update"),
    ("method.samples", "count", "higher", "count", "method.samples"),
    ("method.aggregate_s", "s", "lower", "self", "method.aggregate"),
    ("method.hooks_s", "s", "lower", "self", "method.hooks"),
    ("clustering.finch_s", "s", "lower", "self", "clustering.finch"),
    ("clustering.finch_calls", "count", "lower", "calls", "clustering.finch"),
    ("autograd.forward_s", "s", "lower", "self", "autograd.forward"),
    ("autograd.backward_s", "s", "lower", "self", "autograd.backward"),
    ("autograd.backward_calls", "count", "lower", "calls", "autograd.backward"),
    ("nn.optim_step_s", "s", "lower", "self", "nn.optim_step"),
    ("method.step_other_s", "s", "lower", "self", "method.local_update"),
    ("autograd.plan_hits", "count", "higher", "count", "autograd.plan_hits"),
    ("autograd.plan_misses", "count", "lower", "count", "autograd.plan_misses"),
    ("execution.run_s", "s", "lower", "inclusive", "execution"),
    ("execution.self_s", "s", "lower", "self", "execution"),
    ("execution.ipc_bytes", "bytes", "lower", "count", "execution.ipc_bytes"),
    ("execution.respawns", "count", "lower", "count", "execution.respawns"),
    ("transport.broadcast_s", "s", "lower", "self", "transport.broadcast"),
    ("transport.uplink_s", "s", "lower", "self", "transport.uplink"),
    ("communication.encode_s", "s", "lower", "self", "communication.encode"),
    ("communication.decode_s", "s", "lower", "self", "communication.decode"),
    ("communication.encode_calls", "count", "lower", "calls", "communication.encode"),
    ("transport.frames", "count", "lower", "count", "transport.frames"),
    ("transport.broadcast_bytes", "bytes", "lower", "count", "transport.broadcast_bytes"),
    ("transport.upload_bytes", "bytes", "lower", "count", "transport.upload_bytes"),
    ("transport.retry_frames", "count", "lower", "count", "transport.retry_frames"),
    ("transport.dropped_uploads", "count", "lower", "count", "transport.dropped_uploads"),
    ("aggregation.reduce_s", "s", "lower", "self", "aggregation.reduce"),
    ("aggregation.edge_frames", "count", "lower", "count", "aggregation.edge_frames"),
    ("aggregation.edge_bytes", "bytes", "lower", "count", "aggregation.edge_bytes"),
    ("sampling.select_s", "s", "lower", "self", "sampling.select"),
    ("virtual.materialize_s", "s", "lower", "self", "virtual.materialize"),
    ("virtual.materialize_calls", "count", "lower", "calls", "virtual.materialize"),
    ("async_plane.self_s", "s", "lower", "self", "async_plane"),
    ("async_plane.events", "count", "lower", "count", "async_plane.events"),
    ("clock.sim_time_s", "s", "lower", "count", "clock.sim_time_s"),
    ("faults.client_crashes", "count", "lower", "count", "faults.client_crashes"),
    ("faults.frames_lost", "count", "lower", "count", "faults.frames_lost"),
    ("faults.frames_corrupted", "count", "lower", "count", "faults.frames_corrupted"),
    ("checkpoint.save_s", "s", "lower", "self", "checkpoint.save"),
    ("checkpoint.count", "count", "lower", "count", "checkpoint.count"),
    ("checkpoint.bytes", "bytes", "lower", "count", "checkpoint.bytes"),
    ("registry.publish_s", "s", "lower", "setup_self", "registry.publish"),
    ("registry.load_s", "s", "lower", "self", "registry.load"),
    ("registry.bytes", "bytes", "lower", "count", "registry.bytes"),
    ("engine.install_s", "s", "lower", "self", "engine.install"),
    ("engine.predict_s", "s", "lower", "self", "engine.predict"),
    ("engine.predict_calls", "count", "lower", "calls", "engine.predict"),
    ("engine.swaps", "count", "lower", "count", "engine.swaps"),
    ("service.wait_ms_p50", "ms", "lower", "derived", ""),
    ("service.latency_p99_ms", "ms", "lower", "derived", ""),
    ("service.mean_batch_size", "count", "higher", "count", "service.mean_batch_size"),
    ("service.rejected", "count", "lower", "count", "service.rejected"),
    ("simulation.self_s", "s", "lower", "derived", ""),
    ("share.client_step", "fraction", "higher", "derived", ""),
    ("share.evaluation", "fraction", "higher", "derived", ""),
    ("share.server_path", "fraction", "higher", "derived", ""),
    ("trace.coverage", "fraction", "higher", "derived", ""),
    ("trace.overhead_frac", "fraction", "lower", "derived", ""),
    ("trace.missing_hooks", "count", "lower", "derived", ""),
    ("machine.speed", "fraction", "higher", "count", "machine.speed"),
)

#: Spans that frame or observe the run instead of doing a layer's work.
_ROOT = "run"
_LOOP_SPANS = (_ROOT, "simulation.run_task")
_OBSERVER_SPANS = ("service.request",)

CLIENT_STEP_SPANS = ("execution", "method.local_update")
EVALUATION_SPANS = ("continual.eval",)
SERVER_PATH_SPANS = (
    "transport.broadcast",
    "transport.uplink",
    "method.aggregate",
    "aggregation.reduce",
    "clustering.finch",
    "communication.encode",
    "communication.decode",
)


def _service_latency_p99(run_spans: Sequence[list]) -> float:
    """Client-observed p99, when the traced unit has the ten samples beyond it."""
    latencies = [(r[END] - r[START]) * 1e3 for r in run_spans if r[NAME] == "service.request"]
    if len(latencies) * 0.01 < stats.MIN_SAMPLES_BEYOND:
        return 0.0
    return stats.percentile(latencies, 99.0)


def _service_wait_p50(run_spans: Sequence[list]) -> float:
    """Median of client-observed latency minus the ``engine.predict`` span that served it."""
    predicts = sorted(
        (record for record in run_spans if record[NAME] == "engine.predict"),
        key=lambda record: record[END],
    )
    ends = [record[END] for record in predicts]
    waits = []
    for record in run_spans:
        if record[NAME] != "service.request":
            continue
        position = bisect.bisect_right(ends, record[END]) - 1
        served = predicts[position][END] - predicts[position][START] if position >= 0 else 0.0
        waits.append((record[END] - record[START] - served) * 1e3)
    return stats.percentile(waits, 50.0) if waits else 0.0


def layer_metrics(
    spans: Sequence[list],
    counters: Dict[str, float],
    untraced_run_s: Optional[float],
    missing_hooks: int,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` value for one traced unit's spans and counters.

    A layer the workload never enters reads 0 (its hooks were never called).
    """
    run_spans = within(spans, _ROOT)
    run_self = self_times(run_spans)
    setup_self = self_times(within(spans, "setup"))
    run_s = sum(r[END] - r[START] for r in run_spans if r[NAME] == _ROOT)
    loop_s = sum(run_self.get(name, (0.0, 0))[0] for name in _LOOP_SPANS)
    layer_s = sum(
        seconds
        for name, (seconds, _) in run_self.items()
        if name not in _LOOP_SPANS and name not in _OBSERVER_SPANS
    )

    def share(names: Sequence[str]) -> float:
        return inclusive_time(run_spans, names) / run_s if run_s else 0.0

    derived = {
        "service.wait_ms_p50": _service_wait_p50(run_spans),
        "service.latency_p99_ms": _service_latency_p99(run_spans),
        "simulation.self_s": loop_s,
        "share.client_step": share(CLIENT_STEP_SPANS),
        "share.evaluation": share(EVALUATION_SPANS),
        "share.server_path": share(SERVER_PATH_SPANS),
        "trace.coverage": layer_s / run_s if run_s else 0.0,
        "trace.overhead_frac": run_s / untraced_run_s - 1.0 if untraced_run_s else 0.0,
        "trace.missing_hooks": float(missing_hooks),
    }
    values: Dict[str, float] = {}
    for name, _, _, kind, key in PER_LAYER:
        if kind == "self":
            values[name] = run_self.get(key, (0.0, 0))[0]
        elif kind == "calls":
            values[name] = float(run_self.get(key, (0.0, 0))[1])
        elif kind == "setup_self":
            values[name] = setup_self.get(key, (0.0, 0))[0]
        elif kind == "inclusive":
            values[name] = inclusive_time(run_spans, (key,))
        elif kind == "count":
            values[name] = float(counters.get(key, 0))
        else:
            values[name] = derived[name]
    return values
