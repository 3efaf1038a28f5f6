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
performance trajectory stays machine-readable across PRs, and a key the
session did not re-measure names the commit and time that did under
``carried``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

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


def _measured_at(snapshots: List[dict], key: str) -> Dict[str, Optional[str]]:
    """Commit and time of the snapshot that measured the newest snapshot's
    value of ``key``.

    A snapshot with a ``carried`` map either names where it carried the key
    from or measured the key itself.  Older snapshots carried keys
    unstamped, and a carried value repeats unchanged, so among them the oldest
    of the newest run holding that value measured it."""
    value, origin = snapshots[-1][key], snapshots[-1]
    for snapshot in reversed(snapshots):
        if key not in snapshot or snapshot[key] != value:
            break
        origin = snapshot
        if "carried" in snapshot:
            break
    environment = origin.get("environment", {})
    measured = {name: environment.get(name) for name in ("git_sha", "timestamp")}
    return origin.get("carried", {}).get(key, measured)


def _merged(previous: dict, data: dict, environment: dict) -> dict:
    """A section's new latest view: this session's ``data`` over every key of
    ``previous`` it did not re-measure, and ``previous`` pushed onto the
    section's ``history`` (oldest first).

    ``carried`` maps each key carried forward (the slow bench's keys after a
    fast-only run, or a key no bench records any more) to the commit and time
    that measured it, so none reads as measured under this session's
    ``environment``."""
    previous = dict(previous)
    history = previous.pop("history", [])
    if previous:
        history = history + [previous]
    stale = [key for key in previous if key not in data and key not in ("environment", "carried")]
    section = {key: previous[key] for key in stale}
    section.update(data)
    section.update(
        environment=environment,
        carried={key: _measured_at(history, key) for key in stale},
        history=history,
    )
    return section


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_RESULTS or exitstatus != 0:
        return
    # Sections are append-only across sessions (see ``_merged``); sections
    # not measured this session are left untouched.  The environment (scale,
    # cpu count, time, machine, commit) is stamped per snapshot, since entries
    # may come from runs under different conditions.
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
        results[section] = _merged(results.get(section, {}), data, environment)
    _BENCH_JSON_PATH.write_text(
        json.dumps({"results": results}, indent=2, sort_keys=True) + "\n"
    )


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
