"""One benchmark run of one workload: the entry point ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats *units* (fresh set-up, timed region, untimed checks; see
``workloads.py``) until ``--seconds`` is spent, then prints -- as the last
line of stdout -- one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones, taken
with no hook installed.  With ``--trace 1`` every other unit runs with the
layers' call sites wrapped; the metrics are the per-layer ones of the traced
units, ``trace.overhead_frac`` compares them with the untraced units of the
same invocation, and the spans are written to ``out/trace-<workload>.json``.

Exit status is 0 when every check passed, 1 when a result was printed but a
check failed, and a traceback without a result when the program cannot run.
"""

from __future__ import annotations

import os
import time

_PROCESS_START = time.perf_counter()

# One BLAS thread, unless the caller says otherwise: the matrices here are a
# few hundred wide at most, so OpenBLAS's spinning helper threads gain nothing
# and turn every hypervisor steal on this 2-core box into a multi-x stall (and
# oversubscribe it outright under the 2-worker pool).  Stamped with the result.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402  (imports the program through surface.py)
from tracer import RUN_ID, Tracer, region  # noqa: E402

_IMPORT_S = time.perf_counter() - _PROCESS_START


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped child
    (the worker pool of ``train_reffil_par2``; zero everywhere else)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def measure(
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    log=lambda message: print(message, file=sys.stderr),
) -> Dict[str, Any]:
    """Run units of ``workload`` for about ``seconds``; returns the raw result."""
    tracer = Tracer() if trace else None
    units: List[Dict[str, Any]] = []
    checks: List[workloads.Check] = []
    calibration: List[float] = []
    began = time.perf_counter()
    # Tracing needs one unit of each kind; untraced units come first and last
    # so the traced one is compared with neighbours on both sides.
    min_units = max(workload.min_units, 2 if trace else 1)
    while True:
        calibration += calibrate.sample()
        traced = trace and len(units) % 2 == 1
        unit_tracer = tracer if traced else None
        if traced:
            tracer.run_id = len(units)
        unit_began = time.perf_counter()
        try:
            with region(unit_tracer, "setup"):
                ctx = workload.setup(seed, unit_tracer)
            setup_s = time.perf_counter() - unit_began
            if traced:
                tracer.counts = Counter()  # counts cover the timed region only
            try:
                unit = workload.run(ctx, unit_tracer)
                counts = dict(tracer.counts) if traced else {}
                facts = workload.facts(ctx, unit)
            finally:
                workload.teardown(ctx)
        finally:
            if traced:
                tracer.unpatch_all()
        units.append(
            {"traced": traced, "setup_s": setup_s, "unit": unit, "facts": facts, "counts": counts}
        )
        if len(units) == 1:
            # The high-water mark of one unit, read before later units can add
            # heap growth that depends on how many of them the budget allowed.
            peak_rss_mb = _peak_rss_mb()
        checks.extend(facts["checks"])
        log(
            f"[{workload.name}] unit {len(units)}{' (traced)' if traced else ''}: "
            f"setup {setup_s:.3f}s run {unit.run_s:.3f}s ops {unit.ops}/{unit.owed}"
        )
        elapsed = time.perf_counter() - began
        unit_cost = elapsed / len(units)
        if len(units) >= min_units and elapsed + unit_cost > seconds:
            break

    calibration += calibrate.sample()
    fingerprints = {repr(entry["facts"]["fingerprint"]) for entry in units}
    checks.append(
        ("units_agree", len(fingerprints) == 1, f"{len(fingerprints)} distinct fingerprints")
    )
    return {
        "units": units,
        "checks": checks,
        "tracer": tracer,
        "elapsed_s": time.perf_counter() - began,
        "peak_rss_mb": peak_rss_mb,
        # > 1 when the machine ran faster than the reference box while measuring.
        "speed": calibrate.REFERENCE_S / statistics.mean(calibration),
    }


def raw_end_to_end(raw: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics exactly as the clock read them."""
    plain = [entry for entry in raw["units"] if not entry["traced"]]
    run_s = statistics.median(entry["unit"].run_s for entry in plain)
    ops = sum(entry["unit"].ops for entry in plain)
    latencies = [ms for entry in plain for ms in (entry["unit"].latencies_ms or [])]
    if not latencies:
        # A whole run is one opaque call: its latency is the unit's.
        latencies = [entry["unit"].run_s * 1e3 for entry in plain]
    return {
        "run_s": run_s,
        "ops_per_s": ops / sum(entry["unit"].run_s for entry in plain),
        "op_p50_ms": stats.percentile(latencies, 50.0),
        "op_tail_ms": stats.percentile(latencies, stats.tail_percentile(len(latencies))),
        "peak_rss_mb": raw["peak_rss_mb"],
        "wire_bytes": float(statistics.median(entry["facts"]["wire_bytes"] for entry in plain)),
        "setup_s": _IMPORT_S + statistics.median(entry["setup_s"] for entry in plain),
    }


def end_to_end_metrics(raw: Dict[str, Any]) -> Dict[str, float]:
    """Timings scaled to the reference machine's speed (see ``calibrate.py``)."""
    metrics = raw_end_to_end(raw)
    speed = raw["speed"]
    for name in ("run_s", "op_p50_ms", "op_tail_ms", "setup_s"):
        metrics[name] *= speed
    metrics["ops_per_s"] /= speed
    return metrics


def per_layer_metrics(raw: Dict[str, Any]) -> Dict[str, float]:
    tracer: Tracer = raw["tracer"]
    plain = [entry["unit"].run_s for entry in raw["units"] if not entry["traced"]]
    untraced_run_s = statistics.median(plain) if plain else None
    per_unit = []
    for index, entry in enumerate(raw["units"]):
        if not entry["traced"]:
            continue
        spans = [record for record in tracer.spans if record[RUN_ID] == index]
        counters = {
            **entry["facts"].get("counters", {}),
            **entry["counts"],
            "machine.speed": raw["speed"],
        }
        per_unit.append(
            layers.layer_metrics(spans, counters, untraced_run_s, len(set(tracer.missing)))
        )
    return {
        name: statistics.median(values[name] for values in per_unit)
        for name, *_ in layers.PER_LAYER
    }


def result_line(raw: Dict[str, Any], metrics: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    owed = sum(entry["unit"].owed for entry in raw["units"])
    done = sum(entry["unit"].ops for entry in raw["units"])
    failed_checks = [check for check in raw["checks"] if not check[1]]
    return {
        "correct": not failed_checks and done == owed,
        "attempted": owed + len(raw["checks"]),
        "failed": (owed - done) + len(failed_checks),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    trace = bool(args.trace)
    raw = measure(workload, args.seed, args.seconds, trace)

    reference = getattr(workload, "reference", None)
    if reference is not None:
        # Untimed: the plain single-worker run whose bits this workload must
        # reproduce.
        plain = measure(reference(), args.seed, 0.0, False)
        ours = raw["units"][0]["facts"]["parity"]
        theirs = plain["units"][0]["facts"]["parity"]
        raw["checks"].append(("equals_serial_reference", ours == theirs, f"{ours} vs {theirs}"))

    for name, ok, detail in raw["checks"]:
        if not ok:
            print(f"[{workload.name}] CHECK FAILED {name}: {detail}", file=sys.stderr)

    if trace:
        metrics = per_layer_metrics(raw)
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
        raw["tracer"].dump(
            os.path.join(workloads.OUT_DIR, f"trace-{workload.name}.json"),
            {"workload": workload.name, "seed": args.seed, "metrics": metrics},
        )
    else:
        metrics = end_to_end_metrics(raw)
        units = {name: unit for name, unit, *_ in layers.END_TO_END}
    result = result_line(raw, metrics, units)
    first = raw["units"][0]["facts"]
    latencies = sum(len(entry["unit"].latencies_ms or [0]) for entry in raw["units"] if not entry["traced"])
    # For the suite driver (``python -m benchmarks.e2e``); the contract's result
    # is the last line and nothing but the last line.
    print(
        json.dumps(
            {
                "detail": {
                    "workload": workload.name,
                    "seed": args.seed,
                    "units": len(raw["units"]),
                    "elapsed_s": raw["elapsed_s"],
                    "machine_speed": raw["speed"],
                    "raw": None if trace else raw_end_to_end(raw),
                    "fingerprint": first["fingerprint"],
                    "parity": first.get("parity"),
                    "latency_samples": latencies,
                    "tail_percentile": stats.tail_percentile(latencies),
                    "failed_checks": [name for name, ok, _ in raw["checks"] if not ok],
                }
            }
        )
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
