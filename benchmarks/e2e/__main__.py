"""The whole benchmark in one command, and the tool that compares two results.

    python -m benchmarks.e2e [--repeats N] [--seed S] [--vary-seed] [--trace]
    python -m benchmarks.e2e --check A.json B.json

The first form runs every workload ``--repeats`` times, each ``(workload,
repeat)`` in a fresh ``run.py`` subprocess and the repeats interleaved
round-robin so that drift of the machine lands on every workload alike.  It
prints every end-to-end metric by name with its unit, median and quartiles,
re-checks what only a set of runs can show (hashes agree across repeats;
``train_reffil_par2`` reproduces ``train_reffil``), stamps the result with the
commit and the machine, and writes it under ``out/``.  ``--trace`` adds one
traced pass per workload for the per-layer numbers.

The second form compares two such result files metric by metric against the
bounds in ``layers.END_TO_END`` and exits non-zero when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402

RUN_PY = os.path.join(HERE, "run.py")
OUT_DIR = os.path.join(HERE, "out")
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = (
    "train_reffil",
    "train_reffil_par2",
    "eval_stream",
    "fleet_buffered",
    "server_fanin",
    "serve_closed_loop",
)
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def stamp(seed: int, repeats: int, vary_seed: bool, seconds: float) -> Dict[str, Any]:
    """Where and when these numbers were taken."""

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git", "-C", ROOT) + args, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "platform": platform.platform(),
        "seed": seed,
        "vary_seed": vary_seed,
        "repeats": repeats,
        "seconds": seconds,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> Optional[Dict[str, Any]]:
    """One ``run.py`` subprocess; its result and detail lines, or None."""
    command = [
        sys.executable, RUN_PY,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]  # fmt: skip
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    except subprocess.TimeoutExpired:
        print(f"  {workload} seed {seed}: timed out", file=sys.stderr)
        return None
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
    except (IndexError, KeyError, ValueError):
        print(f"  {workload} seed {seed}: no result (exit {done.returncode})", file=sys.stderr)
        print(done.stderr[-2000:], file=sys.stderr)
        return None
    return {"seed": seed, "result": result, "detail": detail, "exit": done.returncode}


def run_suite(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traces: Dict[str, Dict[str, Any]] = {}
    complete = True
    for repeat in range(args.repeats):
        seed = args.seed + repeat if args.vary_seed else args.seed
        for name in names:
            child = run_child(name, seed, args.seconds, trace=False)
            if child is None:
                complete = False
                continue
            runs[name].append(child)
            print(f"  [{repeat + 1}/{args.repeats}] {name} seed {seed}: "
                  f"run_s {child['result']['metrics']['run_s']['value']:.3f}", file=sys.stderr)
    if args.trace:
        for name in names:
            child = run_child(name, args.seed, args.seconds, trace=True)
            if child is None:
                complete = False
                continue
            traces[name] = child

    summary: Dict[str, Dict[str, Any]] = {}
    checks: List[Dict[str, Any]] = []
    for name in names:
        children = runs[name]
        summary[name] = {
            metric: stats.summarize(
                [child["result"]["metrics"][metric]["value"] for child in children]
            )
            for metric, *_ in layers.END_TO_END
        } if children else {}
        attempted = sum(child["result"]["attempted"] for child in children)
        failed = sum(child["result"]["failed"] for child in children)
        summary[name]["failure_rate"] = failed / attempted if attempted else 1.0
        by_seed: Dict[int, set] = {}
        for child in children:
            by_seed.setdefault(child["seed"], set()).add(repr(child["detail"]["fingerprint"]))
        checks.append(
            {
                "name": f"{name}: fingerprints agree across repeats of a seed",
                "ok": all(len(found) == 1 for found in by_seed.values()),
            }
        )
    if "train_reffil" in runs and "train_reffil_par2" in runs:
        serial = {c["seed"]: c["detail"]["parity"] for c in runs["train_reffil"]}
        checks.append(
            {
                "name": "train_reffil_par2.state_hash == train_reffil.state_hash",
                "ok": all(
                    serial.get(c["seed"], c["detail"]["parity"]) == c["detail"]["parity"]
                    for c in runs["train_reffil_par2"]
                ),
            }
        )

    units = {metric: unit for metric, unit, *_ in layers.END_TO_END}
    print(f"{'workload':<20}{'metric':<14}{'median':>14} {'unit':<6}{'q1':>14}{'q3':>14}{'spread':>9}{'n':>4}")
    for name in names:
        for metric, *_ in layers.END_TO_END:
            row = summary[name].get(metric)
            if row:
                print(
                    f"{name:<20}{metric:<14}{row['median']:>14.6g} {units[metric]:<6}"
                    f"{row['q1']:>14.6g}{row['q3']:>14.6g}{row['spread']:>9.4f}{row['n']:>4}"
                )
        print(f"{name:<20}{'failure_rate':<14}{summary[name]['failure_rate']:>14.6g}")
    for check in checks:
        print(f"check {'ok    ' if check['ok'] else 'FAILED'} {check['name']}")
    for name, child in traces.items():
        print(f"-- per-layer, {name} (traced pass, seed {child['seed']})")
        for metric, entry in child["result"]["metrics"].items():
            if entry["value"]:
                print(f"   {metric:<30}{entry['value']:>14.6g} {entry['unit']}")

    correct = all(check["ok"] for check in checks) and all(
        child["result"]["correct"] for children in runs.values() for child in children
    ) and all(child["result"]["correct"] for child in traces.values())
    if not complete:
        print("incomplete child set: refusing to write a result file", file=sys.stderr)
        return 2
    payload = {
        "stamp": stamp(args.seed, args.repeats, args.vary_seed, args.seconds),
        "bounds": {metric: bound for metric, _, _, bound in layers.END_TO_END},
        "summary": summary,
        "runs": runs,
        "traces": traces,
        "checks": checks,
        "correct": correct,
    }
    out = args.out or os.path.join(
        OUT_DIR, "results-" + payload["stamp"]["utc"].replace(":", "") + ".json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    print(f"wrote {out}")
    return 0 if correct else 1


def check(path_a: str, path_b: str) -> int:
    """One row per (workload, metric): ``ok`` / ``regressed`` / ``unresolved``."""
    with open(path_a, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        change = json.load(handle)
    regressed = False
    print(f"{'workload':<20}{'metric':<14}{'verdict':<11}{'parent':>13}{'change':>13}{'worse by':>10}{'bound':>7}")
    for name in parent["runs"]:
        ours, theirs = parent["runs"][name], change["runs"].get(name, [])
        if not theirs:
            print(f"{name:<20}{'-':<14}{'regressed':<11} (no runs in {path_b})")
            regressed = True
            continue
        for metric, _, better, bound in layers.END_TO_END:
            row = stats.compare(
                [child["result"]["metrics"][metric]["value"] for child in ours],
                [child["result"]["metrics"][metric]["value"] for child in theirs],
                better,
                bound,
            )
            regressed |= row["verdict"] == "regressed"
            print(
                f"{name:<20}{metric:<14}{row['verdict']:<11}{row['parent']['median']:>13.6g}"
                f"{row['change']['median']:>13.6g}{row['worse_by']:>+10.3f}{bound:>7.3f}"
            )
        failed = sum(child["result"]["failed"] for child in theirs)
        regressed |= failed > 0
        print(f"{name:<20}{'failure_rate':<14}{'ok' if failed == 0 else 'regressed':<11}{failed:>26} failed")
        seeds = {c["seed"] for c in ours} & {c["seed"] for c in theirs}
        same = all(
            {repr(c["detail"]["fingerprint"]) for c in ours if c["seed"] == seed}
            == {repr(c["detail"]["fingerprint"]) for c in theirs if c["seed"] == seed}
            for seed in seeds
        )
        # Not a verdict: arithmetic may change on purpose, and the change must then say so.
        print(f"{name:<20}{'fingerprint':<14}{'identical' if same else 'changed':<11}")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workloads", help="comma-separated subset (default: all six)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vary-seed", action="store_true", help="repeat i runs with seed+i")
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", action="store_true", help="add one traced pass per workload")
    parser.add_argument("--out", help="result file (default: out/results-<utc>.json)")
    args = parser.parse_args(argv)
    if args.check:
        return check(*args.check)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
