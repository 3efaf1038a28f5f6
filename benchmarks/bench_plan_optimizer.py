"""Plan replay vs the eager step — the plan-optimizer bench.

The replay engine (:mod:`repro.autograd.planopt`) shapes a compiled
:class:`~repro.autograd.tape.Plan` at compile time: dead records that never
reach the loss are dropped, adjacent single-consumer elementwise runs fuse
into one dispatch, and every poolable intermediate (forward activations and
gradient accumulators alike) is served from a per-plan buffer arena instead
of a fresh allocation, with ufuncs writing straight into the reused buffers.
All of it is bit-for-bit with the eager step (``apply_op`` +
``Tensor.backward``) — the passes only change *where* results land, never
which ops run in which order.

The workload here is the regime those passes exist for: a step dominated by
elementwise dispatch and allocator traffic (an MLP whose body is a deep
tanh/sigmoid/relu chain) rather than by BLAS time.  The plan is traced from
the very step function the eager baseline runs, both step back to back on
the same batch, and the results are checked bitwise before any timing is
trusted.

Three measurement controls keep the timing honest on a shared machine:

* the timed measurement runs in a *fresh interpreter* (this file re-executed
  as a subprocess), because allocator state is part of what is measured:
  earlier tests in a shared pytest process leave freed heap chunks that
  glibc serves big allocations from, hiding the very allocation cost the
  arena removes.  Parity is still asserted in-process — it does not depend
  on timing;
* glibc's mmap threshold is pinned at the activation size
  (``mallopt(M_MMAP_THRESHOLD)``), because its *dynamic* adjustment makes
  big-block allocation cost bimodal — in a fresh heap, every unpooled
  activation then takes the same big-block path every step.  The
  activations are kept small enough that the plan's arena stays
  cache-resident, so its throughput barely moves under outside load;
* the two steps are timed in alternating interleaved blocks and each keeps
  its best block, so transient machine load cancels out of the ratio.

Asserted invariants: plan replay reproduces the eager loss and every
parameter gradient bit-for-bit, clears at least a 1.3x steps/sec multiple
over eager, and cuts the tracemalloc steady-state peak (allocations per step
once the arena is warm) by at least 30%.  Results land in the append-only
``plan_optimizer`` section of ``BENCH_round.json``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np

if __name__ == "__main__":  # fresh-process measurement: no pytest conftest
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
else:
    from conftest import run_once  # noqa: F401  (bench suite convention)

from repro.autograd import functional as F
from repro.autograd.tape import Plan, Tape, tracing
from repro.autograd.tensor import Tensor
from repro.nn import Parameter

DEPTH = 16   # elementwise blocks: deep enough that dispatch + allocation
WIDTH = 64   # dominate the three matmuls bracketing the chain
BATCH = 64   # 64 x 64 float64 = 32KiB per activation: at the pinned mmap
             # threshold, so every unpooled intermediate takes the big-block
             # allocator path, while the arena's working set stays cache-sized
BLOCK_STEPS = 30   # steps per timed block
BLOCK_REPS = 6     # interleaved (eager, replay) block pairs; best-of wins
WARMUP_STEPS = 8
TRACED_STEPS = 3   # steady-state window for the tracemalloc peak

SPEEDUP_FLOOR = 1.3
ALLOC_DROP_FLOOR = 0.30

ACTIVATION_BYTES = BATCH * WIDTH * 8


def _pin_mmap_threshold() -> bool:
    """Disable glibc's dynamic mmap threshold for deterministic timing."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        M_MMAP_THRESHOLD = -3
        return bool(libc.mallopt(M_MMAP_THRESHOLD, ACTIVATION_BYTES))
    except (OSError, AttributeError):
        return False


def _build_step():
    """One dispatch-bound training step: matmul, deep elementwise body, loss.

    Returns the eager step (a closure leaving gradients in ``param.grad``),
    the plan traced from the same loss function, the parameters and the
    replay bindings.
    """
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((BATCH, WIDTH)))
    params = [Parameter(rng.standard_normal((WIDTH, WIDTH)) * 0.1) for _ in range(3)]

    def loss_fn(inputs):
        h = inputs @ params[0]
        for _ in range(DEPTH):
            h = F.tanh(h * 0.5) + F.sigmoid(h)
            h = F.relu(h) * 0.9 + h * 0.1
        h = (h @ params[1]) + (h @ params[2])
        return (h * h).sum() * (1.0 / (BATCH * WIDTH))

    def eager_step():
        for param in params:
            param.grad = None
        loss = loss_fn(x)
        loss.backward()
        return loss.data

    tape = Tape()
    tape.mark_input("x", x)
    with tracing(tape):
        loss = loss_fn(x)
    return eager_step, Plan(tape, loss), params, {"x": x.data}


def _interleaved_best(eager_step, plan: Plan, bindings: dict) -> dict:
    """Best steps/sec per side over alternating timed blocks.

    Interleaving means a load spike hits both sides about equally, and
    best-of picks each side's least-disturbed block, so the reported *ratio*
    is stable even when absolute throughput wobbles.
    """
    steps = {"eager": eager_step, "replay": lambda: plan.execute(bindings)}
    for _ in range(WARMUP_STEPS):
        for step in steps.values():
            step()
    best = {"eager": 0.0, "replay": 0.0}
    for _ in range(BLOCK_REPS):
        for name, step in steps.items():
            start = time.perf_counter()
            for _ in range(BLOCK_STEPS):
                step()
            elapsed = time.perf_counter() - start
            best[name] = max(best[name], BLOCK_STEPS / elapsed)
    return best


def _steady_state_peak(step) -> int:
    """tracemalloc peak over a window where arena/grad buffers already exist,
    so the number is per-step allocator traffic, not one-time warmup cost."""
    step()
    tracemalloc.start()
    for _ in range(TRACED_STEPS):
        step()
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak_bytes


def _assert_parity() -> dict:
    """Trace the step; assert the program's structure and bitwise parity.

    Returns the structural numbers so both the in-process test and the
    fresh-process measurement can report them.
    """
    eager_step, plan, params, bindings = _build_step()
    assert len(plan.opt.program) < len(plan.records), (
        "fusion collapsed no elementwise runs on a chain-heavy workload"
    )
    assert plan.opt.arena_buffers > 0

    # Bit-for-bit before any timing is trusted.
    eager_loss = eager_step()
    replay_loss, leaf_grads = plan.execute(bindings)
    assert float(replay_loss) == float(eager_loss)
    for param in params:
        replayed = plan.grad_for(param, leaf_grads)
        np.testing.assert_array_equal(replayed, param.grad)
        assert replayed.dtype == param.grad.dtype

    return {
        "eager_step": eager_step,
        "plan": plan,
        "bindings": bindings,
        "records": len(plan.records),
        "instructions": len(plan.opt.program),
        "fusion_chains": len(plan.opt.chains),
        "arena_buffers": plan.opt.arena_buffers,
        "dropped_records": len(plan.opt.dropped),
    }


def _measure() -> dict:
    """The full timed measurement; meant to run in a fresh interpreter."""
    pinned = _pin_mmap_threshold()
    setup = _assert_parity()
    eager_step, plan, bindings = setup["eager_step"], setup["plan"], setup["bindings"]

    best = _interleaved_best(eager_step, plan, bindings)
    eager_peak = _steady_state_peak(eager_step)
    replay_peak = _steady_state_peak(lambda: plan.execute(bindings))

    return {
        "depth": DEPTH,
        "width": WIDTH,
        "batch": BATCH,
        "mmap_threshold_pinned": pinned,
        "records": setup["records"],
        "instructions": setup["instructions"],
        "fusion_chains": setup["fusion_chains"],
        "arena_buffers": setup["arena_buffers"],
        "dropped_records": setup["dropped_records"],
        "baseline": "eager",
        "eager_steps_per_sec": best["eager"],
        "replay_steps_per_sec": best["replay"],
        "speedup": best["replay"] / best["eager"],
        "eager_peak_bytes": eager_peak,
        "replay_peak_bytes": replay_peak,
        "alloc_drop": 1.0 - replay_peak / eager_peak,
        "bit_identical": True,
    }


def test_plan_optimizer_throughput(bench_record):
    # Parity holds regardless of process state — assert it right here, so a
    # numeric regression fails in-process with a full diff.
    _assert_parity()

    # Timing runs in a fresh interpreter: a shared pytest process has a warm
    # heap whose free chunks serve the eager step's big allocations for near
    # nothing, hiding the allocation cost the arena removes (and that any
    # fresh training process would pay).
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert proc.returncode == 0, (
        f"fresh-process measurement failed:\n{proc.stdout}\n{proc.stderr}"
    )
    result = json.loads(proc.stdout.splitlines()[-1])

    speedup = result["speedup"]
    alloc_drop = result["alloc_drop"]
    print(
        f"\nplan optimizer (depth={DEPTH} width={WIDTH} batch={BATCH}, "
        f"{result['records']} records -> {result['instructions']} instrs, "
        f"{result['fusion_chains']} fused chains, "
        f"{result['arena_buffers']} arena buffers):\n"
        f"  eager  {result['eager_steps_per_sec']:8.1f} steps/s  "
        f"peak {result['eager_peak_bytes'] / 1024:8.0f} KiB\n"
        f"  replay {result['replay_steps_per_sec']:8.1f} steps/s  "
        f"peak {result['replay_peak_bytes'] / 1024:8.0f} KiB  "
        f"({speedup:.2f}x, alloc -{alloc_drop:.0%}, bit-identical)"
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"plan replay must clear {SPEEDUP_FLOOR}x eager, got {speedup:.2f}x"
    )
    assert alloc_drop >= ALLOC_DROP_FLOOR, (
        f"arena must cut steady-state allocations by >= {ALLOC_DROP_FLOOR:.0%}, "
        f"got {alloc_drop:.0%}"
    )

    bench_record("plan_optimizer", result)


if __name__ == "__main__":
    print(json.dumps(_measure()))

