"""Virtual client populations + tree aggregation — the hierarchy bench.

The north-star scale is millions of devices; the bench asserts the two
properties that make that scale *simulable* on one machine:

* **O(cohort) memory** — a round over a 100k-virtual-client population costs
  the same peak memory as over a 1k one, because clients are lazy ``(seed,
  partition-spec)`` recipes and only the selected cohort ever materializes.
* **Population-independent wire cost** — measured bytes per round depend on
  the cohort and the model, not the population (up to the few bytes pickle
  spends on larger client-id integers).

Asserted invariants: a tree reduce matches the flat star within float
tolerance while its edge partials ride measured, checksummed wire frames;
and fleet runs are deterministic per seed.  Schedule-mode runs are pinned
against the bits of the retired eager data path in ``tests/test_hierarchy.py``.
Results land in the append-only ``hierarchy`` section of ``BENCH_round.json``.
"""

from __future__ import annotations

import resource
import tracemalloc

import numpy as np

from conftest import run_once  # noqa: F401  (bench suite convention)
from repro.baselines import build_method
from repro.continual.scenario import DomainIncrementalScenario
from repro.datasets.registry import build_dataset, get_dataset_spec
from repro.federated import simulation_state_hash
from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientIncrementConfig
from repro.federated.simulation import FederatedDomainIncrementalSimulation
from repro.models.backbone import BackboneConfig

NUM_CLIENTS = 4
NUM_TASKS = 2
ROUNDS_PER_TASK = 2
SMALL_POPULATION = 1_000
LARGE_POPULATION = 100_000


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
        **federated_overrides,
    )
    return FederatedDomainIncrementalSimulation(scenario, method, config)


def _run_fleet(population):
    """One fleet run under tracemalloc; returns (result, peak allocation bytes)."""
    simulation = _build_simulation(
        virtual_clients=True,
        population=population,
        reduce_backend="tree",
        tree_fanout=2,
    )
    tracemalloc.start()
    try:
        result = simulation.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return simulation, result, peak


def test_hierarchy_scale(bench_record):
    # ------------------------------------------------------------------ #
    # Tree vs flat star: float-tolerance numbers, measured edge frames.
    # ------------------------------------------------------------------ #
    flat = _build_simulation().run()
    tree = _build_simulation(reduce_backend="tree", tree_fanout=2).run()
    mask = ~np.isnan(np.asarray(flat.metrics.matrix))
    np.testing.assert_allclose(
        np.asarray(tree.metrics.matrix)[mask],
        np.asarray(flat.metrics.matrix)[mask],
        rtol=1e-6,
        atol=1e-6,
    )
    # 4 leaves at fanout 2: level 1 ships 2 partials, the root combines
    # in-process — 2 edge frames per aggregation round.
    aggregations = NUM_TASKS * ROUNDS_PER_TASK
    assert tree.communication.edge_frames == 2 * aggregations
    assert tree.communication.edge_bytes > 0

    # ------------------------------------------------------------------ #
    # The headline: a 100k-virtual-client round costs what a 1k one does.
    # ------------------------------------------------------------------ #
    small_sim, small, small_peak = _run_fleet(SMALL_POPULATION)
    large_sim, large, large_peak = _run_fleet(LARGE_POPULATION)

    # Peak working set is O(cohort), not O(population): allow 50% jitter or
    # 8 MiB of slack, nowhere near the 100x a materialized population costs.
    assert large_peak <= max(1.5 * small_peak, small_peak + 8 * 2**20), (
        f"peak RSS grew with population: {small_peak} -> {large_peak}"
    )
    # Wire cost is population-independent up to pickle's integer widths
    # (client ids >= 65536 cost ~2 extra bytes per frame).
    small_bytes = small.communication.total_bytes
    large_bytes = large.communication.total_bytes
    assert abs(large_bytes - small_bytes) <= 0.01 * small_bytes, (
        f"measured bytes depend on population: {small_bytes} vs {large_bytes}"
    )
    # O(cohort) bookkeeping: the plane held at most a cache of shards.
    assert len(large_sim.virtual._cache) <= large_sim.virtual._cache_size

    # Determinism guard: the 100k fleet replays exactly per seed.
    replay_sim, replay, _ = _run_fleet(LARGE_POPULATION)
    assert replay.event_log == large.event_log
    assert simulation_state_hash(replay_sim) == simulation_state_hash(large_sim)

    bench_record(
        "hierarchy",
        {
            "num_tasks": NUM_TASKS,
            "rounds_per_task": ROUNDS_PER_TASK,
            "clients_per_round": NUM_CLIENTS,
            "tree_fanout": 2,
            "tree_edge_frames": tree.communication.edge_frames,
            "tree_edge_bytes": tree.communication.edge_bytes,
            "tree_last_accuracy": tree.metrics.last,
            "small_population": SMALL_POPULATION,
            "large_population": LARGE_POPULATION,
            "small_peak_alloc_bytes": small_peak,
            "large_peak_alloc_bytes": large_peak,
            "small_total_bytes": small_bytes,
            "large_total_bytes": large_bytes,
            "large_last_accuracy": large.metrics.last,
            "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "state_hash_large": simulation_state_hash(large_sim),
        },
    )

    print(f"\nhierarchy over {NUM_TASKS} tasks x {ROUNDS_PER_TASK} rounds "
          f"({NUM_CLIENTS} clients/round, finetune):")
    print(f"  tree (fanout 2) vs flat: <=1e-6, "
          f"{tree.communication.edge_frames} edge frames, "
          f"{tree.communication.edge_bytes} edge bytes")
    print(f"  fleet {SMALL_POPULATION:>6d} clients: peak {small_peak:>10d} B, "
          f"wire {small_bytes} B, last acc {small.metrics.last:.4f}")
    print(f"  fleet {LARGE_POPULATION:>6d} clients: peak {large_peak:>10d} B, "
          f"wire {large_bytes} B, last acc {large.metrics.last:.4f}")
