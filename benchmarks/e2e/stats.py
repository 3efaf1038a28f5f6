"""Order statistics the benchmark reports, and the rule that compares two runs."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
#: p99 is deliberately not a candidate for a *bounded* metric: on the shared
#: 2-core reference box the p99 of 2-3 thousand request latencies measures the
#: hypervisor (IQR across runs 14-31%, against 10% for p50), and a metric whose
#: spread exceeds its bound gates nothing.  The traced pass still reports it
#: (``service.latency_p99_ms``).
_CANDIDATE_PERCENTILES = (90.0, 50.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float:
    """The higher of p90 / p50 that has ten of ``count`` samples beyond it."""
    for q in _CANDIDATE_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND:
            return q
    return 50.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a sample too small for quartiles collapses onto its range."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with quartiles, extremes, count and IQR/median spread."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def compare(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """``ok`` / ``regressed`` / ``unresolved`` for one (workload, metric) pair.

    ``regressed``: the change's median is worse than the parent's by more than
    ``bound`` (a share of the parent's median).  Otherwise, when either side's
    run-to-run spread is wider than the bound the pair cannot be told apart
    from noise and is ``unresolved`` -- unless every run of the change reads
    better than every run of the parent.
    """
    a, b = summarize(parent), summarize(change)
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"])
    worse_by = sign * (b["median"] - a["median"]) / base if base else float(b["median"] != a["median"])
    if worse_by > bound:
        verdict = "regressed"
    elif max(a["spread"], b["spread"]) > bound and not (
        max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    ):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"verdict": verdict, "worse_by": worse_by, "parent": a, "change": b}
