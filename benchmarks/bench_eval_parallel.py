"""Serial vs parallel evaluation plane over the pinned worker pool.

The paper's evaluation protocol (Sec. V-A) scores the global model on every
seen domain after each learning step; with mid-task snapshots
(``eval_every``) that becomes an O(T·R) forward-pass workload per run — the
workload this bench measures.  Both runs train identically under the parallel
round engine; only the evaluation backend differs:

* ``eval_executor="serial"`` — the historical in-process loop;
* ``eval_executor="parallel"`` — seen tasks × batch-aligned test-shard slices
  fanned over the *same* pinned pool the training rounds use, each slice
  carried by its own job.

Accuracy matrices, per-task accuracies and the per-round eval history are
asserted bit-for-bit identical, and wall-clock plus the slice bytes each eval
call carried land in the ``eval_plane`` section of ``BENCH_round.json``.

Note: the speedup scales with physical cores; on a single-core CI box the
parallel plane can only match serial (minus fan-out overhead), so the bench
reports the measurement without asserting a minimum speedup.
"""

from __future__ import annotations

import numpy as np

from repro.continual.scenario import DomainIncrementalScenario
from repro.core import RefFiLConfig, RefFiLMethod
from repro.datasets.registry import build_dataset, get_dataset_spec
from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientIncrementConfig
from repro.federated.simulation import FederatedDomainIncrementalSimulation
from repro.models.backbone import BackboneConfig

NUM_CLIENTS = 4
NUM_WORKERS = 4
NUM_TASKS = 2
ROUNDS_PER_TASK = 2


def _build_simulation(eval_executor: str) -> FederatedDomainIncrementalSimulation:
    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=48, test_per_domain=64, num_classes=3
    )
    backbone = BackboneConfig(
        image_size=spec.image_size, num_classes=spec.num_classes,
        base_width=8, embed_dim=32, seed=0,
    )
    dataset = build_dataset("office_caltech", spec_override=spec)
    scenario = DomainIncrementalScenario(dataset, num_tasks=NUM_TASKS)
    method = RefFiLMethod(RefFiLConfig(backbone=backbone, max_tasks=NUM_TASKS))
    config = FederatedConfig(
        increment=ClientIncrementConfig(
            initial_clients=NUM_CLIENTS, increment_per_task=1, transfer_fraction=0.5, seed=0
        ),
        clients_per_round=NUM_CLIENTS,
        rounds_per_task=ROUNDS_PER_TASK,
        local=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.05),
        eval_batch_size=16,
        seed=0,
        executor="parallel",
        num_workers=NUM_WORKERS,
        eval_executor=eval_executor,
        eval_every=1,  # the O(T·R) workload: every round scores all seen domains
    )
    return FederatedDomainIncrementalSimulation(scenario, method, config)


def test_eval_plane_serial_vs_parallel(bench_record):
    serial_sim = _build_simulation("serial")
    serial_result = serial_sim.run()
    serial_eval_s = serial_sim.timer.total("evaluation") + serial_sim.timer.total(
        "round_evaluation"
    )

    parallel_sim = _build_simulation("parallel")
    parallel_result = parallel_sim.run()
    parallel_eval_s = parallel_sim.timer.total("evaluation") + parallel_sim.timer.total(
        "round_evaluation"
    )
    eval_log = parallel_sim.eval_executor.eval_ipc_log

    # Bit-for-bit parity: the backend is a performance knob, never a results
    # knob — matrices (hence Avg/Last/FGT/BwT), per-task accuracies and the
    # per-round history must be identical.
    np.testing.assert_array_equal(serial_result.metrics.matrix, parallel_result.metrics.matrix)
    assert serial_result.per_task_accuracy == parallel_result.per_task_accuracy
    assert serial_result.round_eval_history == parallel_result.round_eval_history
    assert serial_result.round_losses == parallel_result.round_losses

    # eval_every snapshots only: the end-of-task evaluation reuses the final
    # one.  Every call carries the slices of each task seen so far, so the
    # calls of one task carry the same bytes and the second task's carry more.
    assert len(eval_log) == NUM_TASKS * ROUNDS_PER_TASK
    shard_bytes_per_call = [entry.shard_bytes for entry in eval_log]
    per_task = [
        shard_bytes_per_call[t * ROUNDS_PER_TASK : (t + 1) * ROUNDS_PER_TASK]
        for t in range(NUM_TASKS)
    ]
    assert all(len(set(calls)) == 1 for calls in per_task)
    assert 0 < per_task[0][0] < per_task[1][0]

    speedup = serial_eval_s / parallel_eval_s if parallel_eval_s > 0 else float("inf")
    bench_record(
        "eval_plane",
        {
            "num_tasks": NUM_TASKS,
            "rounds_per_task": ROUNDS_PER_TASK,
            "eval_every": 1,
            "num_workers": NUM_WORKERS,
            "eval_calls": len(eval_log),
            "eval_jobs_total": sum(entry.num_jobs for entry in eval_log),
            "serial_eval_s": serial_eval_s,
            "parallel_eval_s": parallel_eval_s,
            "speedup": speedup,
            "shard_bytes_per_eval_call": shard_bytes_per_call,
            "parity": True,
        },
    )
    print(
        f"\nevaluation plane over {NUM_TASKS} tasks x {ROUNDS_PER_TASK} rounds "
        f"(eval_every=1, num_workers={NUM_WORKERS}):"
    )
    print(f"  serial   : {serial_eval_s * 1000:.1f} ms total eval wall-clock")
    print(f"  parallel : {parallel_eval_s * 1000:.1f} ms total eval wall-clock")
    print(f"  speedup  : {speedup:.2f}x (scales with physical cores)")
    print(f"  slice IPC: {shard_bytes_per_call} B per eval call")
