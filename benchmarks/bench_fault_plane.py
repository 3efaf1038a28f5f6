"""Accuracy and overhead under injected faults — the fault plane bench.

Real federations lose clients mid-round, drop or corrupt uploads, and get
their servers bounced; a robustness claim is only worth something if the same
workload can be replayed *with* those failures and the degradation measured.
This bench runs one workload (same seed, same budget) through a ladder of
deterministic fault schedules —

* ``none``        — the clean reference run,
* ``crashes``     — clients crash mid-update and miss the round,
* ``lossy-wire``  — uploads lost in flight, recovered by bounded retries,
* ``corruption``  — upload frames bit-flipped, caught by checksums + retried,
* ``restarts``    — the server restarts every round (delta-codec acks wiped),
* ``chaos``       — all of the above at once,

and records each run's final accuracy, completed aggregations, fault counters
and wire overhead into the append-only ``fault_plane`` section of
``BENCH_round.json``.

Asserted invariants: an all-zero FaultSpec plus active checkpointing
reproduces the clean run bit-for-bit, every faulted run is deterministic per
seed (identical event log and state hash on replay), and a run resumed from
its earliest checkpoint lands on the same bits as the uninterrupted run, and
the last checkpoint of that run stays under 3x the model's bytes (per-client
state in a checkpoint grows with the fleet; the ledger and the event log are
all that may).
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from conftest import run_once  # noqa: F401  (bench suite convention)
from repro.baselines import build_method
from repro.continual.scenario import DomainIncrementalScenario
from repro.datasets.registry import build_dataset, get_dataset_spec
from repro.federated import FaultSpec, parse_checkpoint_name, simulation_state_hash
from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientIncrementConfig
from repro.federated.simulation import FederatedDomainIncrementalSimulation
from repro.models.backbone import BackboneConfig

NUM_CLIENTS = 4
NUM_TASKS = 2
ROUNDS_PER_TASK = 2

#: The fault-schedule ladder, mildest to nastiest.
LADDER = {
    "none": FaultSpec(),
    "crashes": FaultSpec(client_crash_rate=0.25),
    "lossy-wire": FaultSpec(upload_loss_rate=0.3),
    "corruption": FaultSpec(upload_corruption_rate=0.3),
    "restarts": FaultSpec(server_restart_every=1),
    "chaos": FaultSpec(
        client_crash_rate=0.2,
        upload_loss_rate=0.2,
        upload_corruption_rate=0.2,
        server_restart_every=2,
    ),
}


def _build_simulation(**federated_overrides) -> FederatedDomainIncrementalSimulation:
    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=48, test_per_domain=32, num_classes=3
    )
    backbone = BackboneConfig(
        image_size=spec.image_size, num_classes=spec.num_classes,
        base_width=8, embed_dim=32, seed=0,
    )
    dataset = build_dataset("office_caltech", spec_override=spec)
    scenario = DomainIncrementalScenario(dataset, num_tasks=NUM_TASKS)
    method = build_method("finetune", backbone, num_tasks=NUM_TASKS)
    config = FederatedConfig(
        increment=ClientIncrementConfig(
            initial_clients=NUM_CLIENTS, increment_per_task=1, transfer_fraction=0.5, seed=0
        ),
        clients_per_round=NUM_CLIENTS,
        rounds_per_task=ROUNDS_PER_TASK,
        local=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.05),
        eval_batch_size=16,
        seed=0,
        codec="delta",
        **federated_overrides,
    )
    return FederatedDomainIncrementalSimulation(scenario, method, config)


def test_fault_plane_ladder(bench_record):
    # Bit-for-bit guard: fault-plane knobs at rest never move a number, even
    # with aggressive retry settings and checkpointing switched on.
    clean_dir = tempfile.mkdtemp(prefix="fault-bench-clean-")
    try:
        clean_sim = _build_simulation()
        clean = clean_sim.run()
        guarded_sim = _build_simulation(
            retries=5, retry_backoff=2.0, checkpoint_every=1, checkpoint_dir=clean_dir
        )
        guarded = guarded_sim.run()
        np.testing.assert_array_equal(clean.metrics.matrix, guarded.metrics.matrix)
        assert clean.round_losses == guarded.round_losses
        assert clean.event_log == guarded.event_log
        assert simulation_state_hash(clean_sim) == simulation_state_hash(guarded_sim)
        assert guarded.fault_stats["checkpoints_written"] > 0

        # Kill-and-resume guard: restart from the *earliest* checkpoint and
        # re-train everything after it — same final bits as the full run.
        names = sorted(os.listdir(clean_dir), key=parse_checkpoint_name)
        # Size guard: a checkpoint holds the model, the ledger, the event log
        # and — under this bench's ``delta`` codec only — one acknowledged
        # copy per broadcast some client still holds, never one per client.
        checkpoint_bytes = {
            label: os.path.getsize(os.path.join(clean_dir, name))
            for label, name in (("first", names[0]), ("last", names[-1]))
        }
        model_bytes = sum(v.nbytes for v in guarded_sim.server.global_state.values())
        assert checkpoint_bytes["last"] <= 3 * model_bytes, (checkpoint_bytes, model_bytes)
        resume_dir = tempfile.mkdtemp(prefix="fault-bench-resume-")
        try:
            shutil.copy(
                os.path.join(clean_dir, names[0]), os.path.join(resume_dir, names[0])
            )
            resumed_sim = _build_simulation(
                retries=5, retry_backoff=2.0, checkpoint_every=1,
                checkpoint_dir=resume_dir, resume=True,
            )
            resumed = resumed_sim.run()
            assert resumed.fault_stats["resumed_from"] is not None
            np.testing.assert_array_equal(clean.metrics.matrix, resumed.metrics.matrix)
            assert simulation_state_hash(resumed_sim) == simulation_state_hash(clean_sim)
        finally:
            shutil.rmtree(resume_dir, ignore_errors=True)
    finally:
        shutil.rmtree(clean_dir, ignore_errors=True)

    ladder = {}
    for name, spec in LADDER.items():
        result = _build_simulation(faults=spec).run()
        counters = {
            key: value
            for key, value in result.fault_stats.items()
            if isinstance(value, int) and value > 0
        }
        ladder[name] = {
            "avg_accuracy": result.metrics.average,
            "last_accuracy": result.metrics.last,
            "aggregations": len(result.round_losses),
            "upload_bytes": result.communication.uploaded_bytes,
            "fault_counters": counters,
        }
        if name == "none":
            assert result.fault_stats == {}
            np.testing.assert_array_equal(result.metrics.matrix, clean.metrics.matrix)

    # Determinism guard: the nastiest schedule replays exactly per seed.
    first_sim = _build_simulation(faults=LADDER["chaos"])
    first = first_sim.run()
    second_sim = _build_simulation(faults=LADDER["chaos"])
    second = second_sim.run()
    assert first.event_log == second.event_log
    assert first.fault_stats == second.fault_stats
    assert simulation_state_hash(first_sim) == simulation_state_hash(second_sim)

    bench_record(
        "fault_plane",
        {
            "num_tasks": NUM_TASKS,
            "rounds_per_task": ROUNDS_PER_TASK,
            "clients_per_round": NUM_CLIENTS,
            "retries": FederatedConfig.retries,
            "retry_backoff": FederatedConfig.retry_backoff,
            "zero_fault_parity": True,
            "checkpoint_resume_parity": True,
            "checkpoint_bytes": checkpoint_bytes,
            "model_bytes": model_bytes,
            "ladder": ladder,
        },
    )

    print(f"\nfault plane over {NUM_TASKS} tasks x {ROUNDS_PER_TASK} rounds "
          f"({NUM_CLIENTS} clients/round, finetune, delta codec):")
    for name, stats in ladder.items():
        counters = ", ".join(f"{k}={v}" for k, v in stats["fault_counters"].items()) or "-"
        print(f"  {name:11s}: avg {stats['avg_accuracy']:.4f}  "
              f"last {stats['last_accuracy']:.4f}  "
              f"({stats['aggregations']} aggregations, "
              f"{stats['upload_bytes']:>8d} upload bytes)  [{counters}]")
