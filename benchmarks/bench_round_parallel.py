"""Serial vs parallel execution of one federated communication round.

A round is embarrassingly parallel between broadcast and aggregate, which is
exactly what :class:`repro.federated.execution.ParallelExecutor` exploits: the
broadcast state is serialized once per round (instead of deep-copied once per
client) and the selected clients train concurrently on per-worker model
replicas.  This bench measures a ≥4-client round under the serial and the
parallel executor (``num_workers=4``), verifies the two produce identical
updates, and records per-phase wall-clock plus the speedup into
``BENCH_round.json``.

The IPC section (``round_ipc``) runs a two-task stream whose task-1 shards
concatenate task-0 data the way in-between clients do, and records the shard
bytes every round's chunks carry (each chunk ships its clients' datasets, so
the task boundary's grown shards show as a step).  Serial and parallel
updates are asserted identical round by round.

Note: the speedup scales with physical cores; on a single-core CI box the
parallel executor can only match serial (minus pool overhead), so the bench
reports the measurement without asserting a minimum speedup.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RefFiLConfig, RefFiLMethod
from repro.datasets.registry import get_dataset_spec
from repro.datasets.synthetic import generate_domain_split
from repro.federated.client import ClientHandle, LocalTrainingConfig
from repro.federated.execution import ParallelExecutor, SerialExecutor
from repro.federated.increment import ClientGroup
from repro.federated.server import FederatedServer
from repro.models.backbone import BackboneConfig
from repro.utils.rng import spawn_rng
from repro.utils.timing import Timer

NUM_CLIENTS = 4
NUM_WORKERS = 4
ROUND_REPS = 2


def _build_round():
    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=96, test_per_domain=16, num_classes=4
    )
    backbone = BackboneConfig(
        image_size=spec.image_size, num_classes=spec.num_classes,
        base_width=8, embed_dim=32, seed=0,
    )
    method = RefFiLMethod(RefFiLConfig(backbone=backbone, max_tasks=2))
    model = method.build_model()
    server = FederatedServer(model)
    data = generate_domain_split(spec, 0, "train")
    shard = len(data) // NUM_CLIENTS
    clients = [
        ClientHandle(
            client_id=i,
            task_id=0,
            group=ClientGroup.NEW,
            dataset=data.subset(np.arange(i * shard, (i + 1) * shard)),
            rng=spawn_rng(0, "client", i, 0, 0),
            training=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.05),
        )
        for i in range(NUM_CLIENTS)
    ]
    return method, model, server, clients


def test_round_serial_vs_parallel(benchmark, bench_record):
    method, model, server, clients = _build_round()
    timer = Timer()

    serial = SerialExecutor()
    # First round is warm-up (cold caches), excluded from timing exactly like
    # the parallel path's pool warm-up, so the comparison is symmetric.
    with timer.measure("serial_warmup"):
        serial_updates = serial.run_round(method, model, server.broadcast_view(), clients)

    def serial_rounds():
        for _ in range(ROUND_REPS):
            with timer.measure("serial_round"):
                serial.run_round(method, model, server.broadcast_view(), clients)

    benchmark.pedantic(serial_rounds, rounds=1, iterations=1, warmup_rounds=0)

    # Fresh handles for the parity check: the timing loop above consumed the
    # original clients' RNG streams in place, so rebuild identical ones.
    _, _, _, fresh_clients = _build_round()
    with ParallelExecutor(num_workers=NUM_WORKERS) as parallel:
        # Warm-up pays the one-time pool fork + import cost outside the timing.
        with timer.measure("parallel_warmup"):
            parallel_updates = parallel.run_round(
                method, model, server.broadcast_view(), fresh_clients
            )
        for _ in range(ROUND_REPS):
            with timer.measure("parallel_round"):
                parallel.run_round(method, model, server.broadcast_view(), fresh_clients)
        ipc_log = parallel.ipc_log

    # Executor parity: both paths must produce identical client updates.
    assert len(serial_updates) == len(parallel_updates) == NUM_CLIENTS
    for left, right in zip(serial_updates, parallel_updates):
        assert left.client_id == right.client_id
        assert left.train_loss == right.train_loss
        for key in left.state_dict:
            np.testing.assert_array_equal(left.state_dict[key], right.state_dict[key])

    serial_s = timer.total("serial_round") / timer.count("serial_round")
    parallel_s = timer.total("parallel_round") / timer.count("parallel_round")
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    bench_record(
        "round_parallel",
        {
            "clients_per_round": NUM_CLIENTS,
            "num_workers": NUM_WORKERS,
            "serial_round_s": serial_s,
            "parallel_round_s": parallel_s,
            "parallel_warmup_s": timer.total("parallel_warmup"),
            "speedup": speedup,
            "parity": True,
            # Every round ships its clients' shards: the timed rounds carry
            # what the warm-up carried.
            "warmup_shard_bytes": ipc_log[0].shard_bytes,
            "timed_round_shard_bytes": ipc_log[-1].shard_bytes,
        },
    )
    print(f"\nround of {NUM_CLIENTS} clients (mean of {timer.count('serial_round')} serial / "
          f"{timer.count('parallel_round')} parallel reps, warm-ups excluded):")
    print(f"  serial   : {serial_s * 1000:.1f} ms")
    print(f"  parallel : {parallel_s * 1000:.1f} ms  (num_workers={NUM_WORKERS}, "
          f"warmup {timer.total('parallel_warmup') * 1000:.0f} ms)")
    print(f"  speedup  : {speedup:.2f}x (scales with physical cores)")
    print(f"  shard IPC: {ipc_log[-1].shard_bytes} B per round")


def _multitask_datasets():
    """Two tasks' client shards; task-1 shards concatenate task-0 data the way
    in-between clients do, so a task-1 shard is larger than its task-0 one."""
    from repro.datasets.base import ArrayDataset

    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=96, test_per_domain=16, num_classes=4
    )
    per_task = []
    for task_id in range(2):
        data = generate_domain_split(spec, task_id, "train")
        shard = len(data) // NUM_CLIENTS
        per_task.append(
            [data.subset(np.arange(i * shard, (i + 1) * shard)) for i in range(NUM_CLIENTS)]
        )
    merged = [
        ArrayDataset.concatenate((old, new)) for old, new in zip(per_task[0], per_task[1])
    ]
    return spec, [per_task[0], merged]


def _multitask_handles(task_datasets, task_id, round_index):
    return [
        ClientHandle(
            client_id=i,
            task_id=task_id,
            group=ClientGroup.IN_BETWEEN if task_id else ClientGroup.NEW,
            dataset=dataset,
            rng=spawn_rng(0, "client", i, task_id, round_index),
            training=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.05),
        )
        for i, dataset in enumerate(task_datasets[task_id])
    ]


def test_round_ipc_multitask_parity(bench_record):
    """Serial and parallel execution produce identical updates over two
    tasks, and every round's chunks carry its clients' shards: the same bytes
    each round of a task, more after the boundary where the shards grew."""
    ROUNDS_PER_TASK = 2
    spec, task_datasets = _multitask_datasets()
    backbone = BackboneConfig(
        image_size=spec.image_size, num_classes=spec.num_classes,
        base_width=8, embed_dim=32, seed=0,
    )

    def run(make_executor):
        method = RefFiLMethod(RefFiLConfig(backbone=backbone, max_tasks=2))
        model = method.build_model()
        server = FederatedServer(model)
        rounds = []
        with make_executor() as executor:
            for task_id in range(2):
                for round_index in range(ROUNDS_PER_TASK):
                    handles = _multitask_handles(task_datasets, task_id, round_index)
                    rounds.append(
                        executor.run_round(method, model, server.broadcast_view(), handles)
                    )
            return rounds, getattr(executor, "ipc_log", None)

    serial_rounds, _ = run(SerialExecutor)
    parallel_rounds, ipc_log = run(lambda: ParallelExecutor(num_workers=NUM_WORKERS))

    assert len(parallel_rounds) == len(serial_rounds)
    for reference, candidate in zip(serial_rounds, parallel_rounds):
        assert [u.client_id for u in reference] == [u.client_id for u in candidate]
        assert [u.train_loss for u in reference] == [u.train_loss for u in candidate]
        for left, right in zip(reference, candidate):
            for key in left.state_dict:
                np.testing.assert_array_equal(left.state_dict[key], right.state_dict[key])

    shard_bytes = [ipc.shard_bytes for ipc in ipc_log]
    # Every round of a task carries the same shards; task-1 shards are
    # concatenations, so they weigh more.
    per_task = [shard_bytes[t * ROUNDS_PER_TASK : (t + 1) * ROUNDS_PER_TASK] for t in range(2)]
    assert all(len(set(rounds)) == 1 for rounds in per_task)
    assert 0 < per_task[0][0] < per_task[1][0]

    bench_record(
        "round_ipc",
        {
            "clients_per_round": NUM_CLIENTS,
            "num_workers": NUM_WORKERS,
            "num_tasks": 2,
            "rounds_per_task": ROUNDS_PER_TASK,
            "shard_bytes_per_round": shard_bytes,
            "broadcast_bytes_per_round": ipc_log[0].broadcast_bytes,
            "multitask_parity": True,
        },
    )
    print(f"\nshard IPC per round over 2 tasks x {ROUNDS_PER_TASK} rounds "
          f"({NUM_CLIENTS} clients, num_workers={NUM_WORKERS}):")
    print(f"  {shard_bytes} B")


@pytest.mark.slow
def test_round_parallel_full_simulation_parity(bench_record):
    """Whole-run parity at bench scale: serial and parallel are identical over
    a multi-task run with two rounds per task and in-between clients whose
    shards grow at the task boundary."""
    from repro.continual.scenario import DomainIncrementalScenario
    from repro.datasets.registry import build_dataset
    from repro.federated.config import FederatedConfig
    from repro.federated.increment import ClientIncrementConfig
    from repro.federated.simulation import FederatedDomainIncrementalSimulation

    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=48, test_per_domain=16, num_classes=3
    )
    backbone = BackboneConfig(
        image_size=spec.image_size, num_classes=spec.num_classes,
        base_width=8, embed_dim=32, seed=0,
    )

    def run(executor):
        dataset = build_dataset("office_caltech", spec_override=spec)
        scenario = DomainIncrementalScenario(dataset, num_tasks=2)
        method = RefFiLMethod(RefFiLConfig(backbone=backbone, max_tasks=2))
        config = FederatedConfig(
            increment=ClientIncrementConfig(
                initial_clients=NUM_CLIENTS, increment_per_task=1, transfer_fraction=0.5, seed=0
            ),
            clients_per_round=NUM_CLIENTS,
            rounds_per_task=2,
            local=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.05),
            seed=0,
            executor=executor,
            num_workers=NUM_WORKERS,
        )
        return FederatedDomainIncrementalSimulation(scenario, method, config).run()

    serial_result = run("serial")
    parallel_result = run("parallel")
    np.testing.assert_array_equal(
        serial_result.metrics.matrix, parallel_result.metrics.matrix
    )
    assert serial_result.round_losses == parallel_result.round_losses
    bench_record("round_parallel", {"full_simulation_parity": True})
