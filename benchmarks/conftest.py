"""Shared helpers for the benchmark suite.

Every bench regenerates one table or figure of the paper at the scale selected
by the ``REPRO_SCALE`` environment variable (default ``tiny``).  Training runs
are memoised by :mod:`repro.experiments.runner`, so benches that are different
views of the same runs (Table I vs Table III) only pay for them once per
session.  Benches execute their workload exactly once (``rounds=1``): the
quantity being "benchmarked" is the wall-clock cost of regenerating the
table, and the printed output is the table itself.

Perf-tracking benches (``bench_round_parallel``, the fig-2 precision bench)
additionally push their measurements into the session-scoped ``bench_record``
fixture; at session end everything collected is written to
``BENCH_round.json`` at the repository root.  Sections are append-only: a
re-measured section keeps its prior snapshots under ``history``, so the
performance trajectory stays machine-readable across PRs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments import get_scale

_BENCH_RESULTS: Dict[str, dict] = {}
_BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_round.json"


@pytest.fixture(scope="session")
def scale():
    return get_scale()


@pytest.fixture(scope="session")
def bench_record():
    """Collector for machine-readable perf results, flushed to BENCH_round.json."""

    def record(section: str, data: dict) -> None:
        _BENCH_RESULTS.setdefault(section, {}).update(data)

    return record


def _commit() -> dict:
    """The checkout's commit and whether its tree had uncommitted changes."""

    def git(*args: str):
        try:
            done = subprocess.run(
                ("git", "-C", str(_BENCH_JSON_PATH.parent)) + args,
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    dirty = bool(status) if status is not None else None
    return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": dirty}


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RESULTS or exitstatus != 0:
        return
    # Sections are append-only across sessions: when a section is re-measured,
    # its previous content is pushed onto the section's "history" list (oldest
    # first) instead of being overwritten, so numbers recorded by earlier PRs
    # survive every later bench run.  Sections not measured this session are
    # left untouched.  The environment (scale, cpu count, time, machine,
    # commit) is stamped per snapshot, since entries may come from runs under
    # different conditions.
    results: Dict[str, dict] = {}
    if _BENCH_JSON_PATH.exists():
        try:
            results = json.loads(_BENCH_JSON_PATH.read_text()).get("results", {})
        except (json.JSONDecodeError, OSError):
            results = {}
    try:
        scale_name = get_scale().value
    except ValueError:
        scale_name = os.environ.get("REPRO_SCALE", "tiny")
    environment = {
        "scale": scale_name,
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": f"{platform.platform()} {platform.processor() or platform.machine()}",
        **_commit(),
    }
    for section, data in _BENCH_RESULTS.items():
        previous = dict(results.get(section, {}))
        history = previous.pop("history", [])
        if previous:
            history = history + [previous]
        # Carry forward keys the session did not re-measure (e.g. the slow
        # bench's keys after a fast-only run) so partial invocations never
        # shrink a section's latest view.  "environment" describes this
        # session's measurements only; a carried key's true provenance is the
        # newest history snapshot that recorded it, which kept its own stamp.
        results[section] = {**previous, **data, "environment": environment, "history": history}
    _BENCH_JSON_PATH.write_text(
        json.dumps({"results": results}, indent=2, sort_keys=True) + "\n"
    )


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
