"""Tests of the benchmark harness itself.

Run by explicit path (tier-1 collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import os

import pytest

import layers
import run
import stats
import surface
import workloads
from tracer import Tracer, inclusive_time, self_times, within



def _span(name, start, end, parent=None, run_id=0):
    return [name, start, end, parent, run_id]


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #


def test_self_time_is_duration_minus_direct_children():
    root = _span("run", 0.0, 10.0)
    update = _span("method.local_update", 1.0, 9.0, root)
    forward = _span("autograd.forward", 1.5, 4.0, update)
    nested = _span("autograd.forward", 2.0, 3.0, forward)  # grandchild of update
    backward = _span("autograd.backward", 4.0, 8.0, update)
    totals = self_times([root, update, forward, nested, backward])
    assert totals["run"] == (pytest.approx(2.0), 1)
    assert totals["method.local_update"] == (pytest.approx(8.0 - 2.5 - 4.0), 1)
    assert totals["autograd.forward"] == (pytest.approx(1.5 + 1.0), 2)
    assert totals["autograd.backward"] == (pytest.approx(4.0), 1)
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(seconds for seconds, _ in totals.values()) == pytest.approx(10.0)


def test_inclusive_time_counts_outermost_spans_only():
    root = _span("run", 0.0, 10.0)
    execution = _span("execution", 1.0, 6.0, root)
    update = _span("method.local_update", 2.0, 5.0, execution)
    lone = _span("method.local_update", 7.0, 9.0, root)
    spans = [root, execution, update, lone]
    assert inclusive_time(spans, ("execution", "method.local_update")) == pytest.approx(7.0)
    assert inclusive_time(spans, ("method.local_update",)) == pytest.approx(5.0)


def test_within_selects_by_time_across_threads_and_drops_open_spans():
    setup = _span("setup", 0.0, 1.0)
    early = _span("registry.publish", 0.2, 0.8, setup)
    root = _span("run", 2.0, 5.0)
    worker = _span("engine.predict", 3.0, 3.5)  # another thread: no parent link
    still_open = _span("engine.predict", 4.0, None)
    selected = within([setup, early, root, worker, still_open], "run")
    assert [record[0] for record in selected] == ["run", "engine.predict"]


def test_layer_metrics_cover_every_declared_name():
    root = _span("run", 0.0, 4.0)
    spans = [root, _span("method.local_update", 0.5, 3.5, root)]
    values = layers.layer_metrics(spans, {"method.samples": 7}, untraced_run_s=3.2, missing_hooks=1)
    assert set(values) == {name for name, *_ in layers.PER_LAYER}
    assert values["method.local_update_s"] == pytest.approx(3.0)
    assert values["method.samples"] == 7.0
    assert values["trace.coverage"] == pytest.approx(0.75)
    assert values["share.client_step"] == pytest.approx(0.75)
    assert values["trace.overhead_frac"] == pytest.approx(0.25)
    assert values["trace.missing_hooks"] == 1.0
    assert values["engine.predict_s"] == 0.0  # a layer never entered reads 0


# --------------------------------------------------------------------------- #
# Percentiles and verdicts
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "count, expected",
    [(1, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (5000, 90.0)],
)
def test_no_percentile_with_fewer_than_ten_samples_beyond_it(count, expected):
    q = stats.tail_percentile(count)
    assert q == expected
    assert q == 50.0 or count * (100.0 - q) / 100.0 >= stats.MIN_SAMPLES_BEYOND


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
    assert stats.percentile([5.0], 99.0) == 5.0
    assert stats.percentile(range(101), 90.0) == pytest.approx(90.0)


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert stats.compare(steady, [10.2, 10.3, 10.1, 10.2, 10.25], "lower", 0.10)["verdict"] == "ok"
    assert stats.compare(steady, [v * 1.2 for v in steady], "lower", 0.10)["verdict"] == "regressed"
    assert stats.compare(steady, [v * 0.8 for v in steady], "higher", 0.10)["verdict"] == "regressed"
    noisy = [8.0, 12.0, 10.0, 9.0, 11.0]
    assert stats.compare(noisy, [8.5, 11.5, 10.2, 9.1, 10.9], "lower", 0.10)["verdict"] == "unresolved"
    # Spread wider than the bound, but every run of the change beats every run of the parent.
    assert stats.compare(noisy, [5.0, 7.0, 6.0, 5.5, 6.5], "lower", 0.10)["verdict"] == "ok"


# --------------------------------------------------------------------------- #
# Patching
# --------------------------------------------------------------------------- #


def test_wrappers_restore_the_original_attributes():
    import repro.federated.transport as transport_module
    from repro.autograd.tensor import Tensor
    from repro.nn.module import Module

    sim = workloads.TrainRefFiL.reduced().build(0, None)
    method_class = type(sim.method)
    before = {
        "backward": Tensor.__dict__["backward"],
        "call": Module.__dict__["__call__"],
        "encode": transport_module.encode_frame,
        "local_update": method_class.__dict__["local_update"],
        "predict_fn": sim.evaluator.predict_fn,
        "broadcast": sim.transport.broadcast_round,
    }
    inherited_hook = "on_round_start" in method_class.__dict__
    tracer = Tracer()
    surface.install_simulation_hooks(tracer, sim)
    assert Tensor.__dict__["backward"] is not before["backward"]
    assert "run_task" in vars(sim) and "broadcast_round" in vars(sim.transport)
    assert not tracer.missing
    tracer.unpatch_all()
    assert Tensor.__dict__["backward"] is before["backward"]
    assert Module.__dict__["__call__"] is before["call"]
    assert transport_module.encode_frame is before["encode"]
    assert method_class.__dict__["local_update"] is before["local_update"]
    assert ("on_round_start" in method_class.__dict__) == inherited_hook
    assert sim.evaluator.predict_fn == before["predict_fn"]
    assert "run_task" not in vars(sim) and "broadcast_round" not in vars(sim.transport)
    assert sim.transport.broadcast_round == before["broadcast"]
    sim.close()


def test_a_vanished_hook_target_is_counted_not_fatal():
    tracer = Tracer()
    assert not tracer.patch_path(surface.Hook("x", "repro.no_such_module:thing"))
    assert not tracer.patch_path(surface.Hook("x", "repro.nn.optim:SGD.no_such_method"))
    assert not tracer.patch_attr(object(), surface.Hook("x", "transport.broadcast_round"))
    assert len(tracer.missing) == 3
    tracer.unpatch_all()


def test_outermost_hooks_collapse_nested_calls_and_counts_are_taken():
    tracer = Tracer()

    class Box:
        def call(self, depth):
            return depth if depth == 0 else self.call(depth - 1)

    tracer.patch_attr(
        Box, surface.Hook("box", "call", outermost=True, count=lambda a, k, r: {"calls": 1})
    )
    assert Box().call(3) == 0
    tracer.unpatch_all()
    assert [record[0] for record in tracer.spans] == ["box"]
    assert tracer.counts["calls"] == 1


# --------------------------------------------------------------------------- #
# The workloads, at a tenth of their size
# --------------------------------------------------------------------------- #


def _quiet(message):
    pass


def test_seed_plumbing():
    workload = workloads.TrainRefFiL.reduced()
    same = [run.measure(workload, 0, 0.0, False, log=_quiet)["units"][0]["facts"] for _ in range(2)]
    other = run.measure(workload, 1, 0.0, False, log=_quiet)["units"][0]["facts"]
    assert same[0]["state_hash"] == same[1]["state_hash"]
    assert same[0]["state_hash"] != other["state_hash"]
    # The seed moves the content, not the amount of work.
    assert same[0]["ops"] == other["ops"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_reduced_untraced_and_traced(name):
    workload = workloads.WORKLOADS[name].reduced()
    raw = run.measure(workload, 0, 0.0, True, log=_quiet)
    assert [entry["traced"] for entry in raw["units"]][:2] == [False, True]
    assert [check for check in raw["checks"] if not check[1]] == []
    end_to_end = run.end_to_end_metrics(raw)
    assert set(end_to_end) == {metric for metric, *_ in layers.END_TO_END}
    assert all(value > 0 for value in end_to_end.values())
    per_layer = run.per_layer_metrics(raw)
    assert set(per_layer) == {metric for metric, *_ in layers.PER_LAYER}
    assert per_layer["trace.missing_hooks"] == 0
    assert 0.0 < per_layer["trace.coverage"] <= 1.0 + 1e-9
    result = run.result_line(raw, end_to_end, {m: u for m, u, *_ in layers.END_TO_END})
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_par2_reproduces_the_serial_reference():
    parallel = workloads.TrainRefFiLPar2.reduced()
    ours = run.measure(parallel, 0, 0.0, False, log=_quiet)["units"][0]["facts"]["parity"]
    theirs = run.measure(parallel.reference(), 0, 0.0, False, log=_quiet)["units"][0]["facts"]["parity"]
    assert ours == theirs


# --------------------------------------------------------------------------- #
# The contract file
# --------------------------------------------------------------------------- #


def test_benchmark_json_mirrors_the_tables():
    with open(os.path.join(surface.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (name, cls.why) for name, cls in workloads.WORKLOADS.items()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]] == [
        tuple(row) for row in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
    assert max(m["bound"] for m in contract["end_to_end"]) <= 0.25
