"""``BENCH_round.json``'s merge: sections append, carried keys name their snapshot.

A bench session rewrites each section it measured: the previous latest view
moves onto ``history``, and a key the session did not re-measure is carried
into the new latest view.  A carried key must not read as measured under the
new snapshot's commit, so ``carried`` names the commit and time that measured
it.  The benchmark conftest is loaded from its file without writing bytecode
next to it, and pointed at a fake results file.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"


@pytest.fixture
def bench_conftest(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_BENCH_JSON_PATH", tmp_path / "BENCH_round.json")
    monkeypatch.setattr(module, "_commit", lambda: {"git_sha": "new", "git_dirty": False})
    return module


def _finish(module, sections):
    """One bench session that recorded ``sections``; the file it leaves."""
    module._BENCH_RESULTS.clear()
    module._BENCH_RESULTS.update(sections)
    module.pytest_sessionfinish(None, 0)
    return json.loads(module._BENCH_JSON_PATH.read_text())["results"]


def _snapshot(sha, **values):
    return {"environment": {"git_sha": sha, "timestamp": f"t-{sha}"}, **values}


def _at(sha):
    return {"git_sha": sha, "timestamp": f"t-{sha}"}


def test_carried_keys_name_the_snapshot_that_measured_them(bench_conftest):
    # "a" measured the cache counter; "b" and "c" carried it unstamped.  "c"
    # is a stamped snapshot that measured the slow bench's parity itself.
    round_ipc = _snapshot("c", cache_hits_total=3, shard_bytes=[3])
    round_ipc["history"] = [
        _snapshot("a", cache_hits_total=3, shard_bytes=[1]),
        _snapshot("b", cache_hits_total=3, shard_bytes=[2]),
    ]
    round_parallel = _snapshot("c", parity=True, full_simulation_parity=True, carried={})
    round_parallel["history"] = [_snapshot("b", parity=True, full_simulation_parity=True)]
    untouched = _snapshot("z", speedup=1.5)
    bench_conftest._BENCH_JSON_PATH.write_text(
        json.dumps(
            {
                "results": {
                    "round_ipc": round_ipc,
                    "round_parallel": round_parallel,
                    "serving": untouched,
                }
            }
        )
    )

    results = _finish(
        bench_conftest, {"round_ipc": {"shard_bytes": [4]}, "round_parallel": {"parity": True}}
    )

    latest = results["round_ipc"]
    assert latest["shard_bytes"] == [4] and latest["cache_hits_total"] == 3
    assert latest["environment"]["git_sha"] == "new"
    assert latest["carried"] == {"cache_hits_total": _at("a")}
    assert [entry["environment"]["git_sha"] for entry in latest["history"]] == ["a", "b", "c"]
    assert latest["history"][-1] == {
        key: value for key, value in round_ipc.items() if key != "history"
    }
    assert results["round_parallel"]["carried"] == {"full_simulation_parity": _at("c")}
    assert results["serving"] == untouched

    # The stamp travels: a later session keeps naming the measuring commit,
    # and a re-measured key stops being carried.
    results = _finish(bench_conftest, {"round_ipc": {"shard_bytes": [5]}})
    assert results["round_ipc"]["carried"] == {"cache_hits_total": _at("a")}
    assert len(results["round_ipc"]["history"]) == 4
    results = _finish(bench_conftest, {"round_ipc": {"shard_bytes": [6], "cache_hits_total": 0}})
    assert results["round_ipc"]["carried"] == {}
    assert len(results["round_ipc"]["history"]) == 5
