"""Accuracy vs. simulated time across aggregation regimes — the temporal plane bench.

Real cross-device federations are governed by stragglers: a synchronous round
lasts as long as its slowest device, while asynchronous regimes keep fast
devices busy at the price of stale updates.  This bench runs the same
workload (same budget of local updates, same seed) through the three
aggregation regimes of the temporal plane —

* ``mode="sync"``     — barrier rounds (FedAvg),
* ``mode="async"``    — per-arrival application with polynomial staleness
  decay (FedAsync-style),
* ``mode="buffered"`` — aggregate every K arrivals (FedBuff-style),

under three device-heterogeneity tiers (``mild`` / ``moderate`` /
``extreme``: increasingly spread compute speeds and link rates, decreasing
availability, per-task churn), and records each run's accuracy-vs-simulated-
time curve (one point per ``eval_every`` aggregation, timestamped by the
discrete-event clock) into the append-only ``async_plane`` section of
``BENCH_round.json``.

Asserted invariants: ``mode="sync"`` under the always-online ``homogeneous``
tier reproduces the instantaneous-profile numbers bit-for-bit (the clock
times the run without touching it), async/buffered runs are deterministic
per seed, and every non-instant run advances the simulated clock.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once  # noqa: F401  (bench suite convention)
from repro.baselines import build_method
from repro.continual.scenario import DomainIncrementalScenario
from repro.datasets.registry import build_dataset, get_dataset_spec
from repro.federated.async_plane import STALENESS_DECAY
from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientIncrementConfig
from repro.federated.simulation import FederatedDomainIncrementalSimulation
from repro.models.backbone import BackboneConfig

NUM_CLIENTS = 4
NUM_TASKS = 2
ROUNDS_PER_TASK = 2
MODES = ("sync", "async", "buffered")
TIERS = ("mild", "moderate", "extreme")


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
        eval_every=1,
        **federated_overrides,
    )
    return FederatedDomainIncrementalSimulation(scenario, method, config)


def _curve(result) -> list:
    """The accuracy-vs-simulated-time curve: one point per eval snapshot."""
    return [
        {
            "sim_time": entry["sim_time"],
            "task_id": entry["task_id"],
            "avg_accuracy": float(np.mean(list(entry["accuracies"].values()))),
        }
        for entry in result.round_eval_history
    ]


def test_async_plane_regimes(bench_record):
    # Bit-for-bit guard: the homogeneous tier only times the sync run.
    instant = _build_simulation(mode="sync", device_profile="instant").run()
    timed_sync = _build_simulation(mode="sync", device_profile="homogeneous").run()
    np.testing.assert_array_equal(instant.metrics.matrix, timed_sync.metrics.matrix)
    assert instant.round_losses == timed_sync.round_losses
    assert instant.communication.uploaded_bytes == timed_sync.communication.uploaded_bytes
    assert instant.communication.broadcast_bytes == timed_sync.communication.broadcast_bytes
    assert instant.sim_time == 0.0 and timed_sync.sim_time > 0.0

    regimes = {}
    for mode in MODES:
        per_tier = {}
        for tier in TIERS:
            result = _build_simulation(mode=mode, device_profile=tier).run()
            assert result.sim_time > 0.0
            events = [e["kind"] for e in result.event_log]
            if mode == "sync":
                assert events.count("round") + events.count("idle_round") >= 1
            else:
                assert "dispatch" in events and "arrival" in events
            per_tier[tier] = {
                "sim_time": result.sim_time,
                "avg_accuracy": result.metrics.average,
                "aggregations": len(result.round_losses),
                "events": len(result.event_log),
                "curve": _curve(result),
            }
        regimes[mode] = per_tier

    # Determinism guard: the event-driven regimes replay exactly per seed.
    replay = _build_simulation(mode="async", device_profile="extreme").run()
    first = regimes["async"]["extreme"]
    assert replay.sim_time == first["sim_time"]
    assert replay.metrics.average == first["avg_accuracy"]
    assert _curve(replay) == first["curve"]

    bench_record(
        "async_plane",
        {
            "num_tasks": NUM_TASKS,
            "rounds_per_task": ROUNDS_PER_TASK,
            "clients_per_round": NUM_CLIENTS,
            "STALENESS_DECAY": STALENESS_DECAY,
            "sync_instant_parity": True,
            "regimes": regimes,
        },
    )

    print(f"\ntemporal plane over {NUM_TASKS} tasks x {ROUNDS_PER_TASK} rounds "
          f"({NUM_CLIENTS} clients/round, finetune, simulated seconds):")
    for mode, per_tier in regimes.items():
        for tier, stats in per_tier.items():
            print(f"  {mode:8s} x {tier:9s}: t={stats['sim_time']:8.2f}s  "
                  f"avg {stats['avg_accuracy']:.4f}  "
                  f"({stats['aggregations']} aggregations, {stats['events']} events)")
