"""End-to-end tests of the kernel plane knob: eager / tape / batched.

The contracts, from strongest to weakest:

* ``kernel="tape"`` is *hash-identical* to eager — every plan's first replay
  is verified bit-for-bit against the eager step and any divergence falls
  back, so the trained numbers cannot move.
* ``kernel="batched"`` reorders float accumulation (stacked matmuls,
  vectorized clip norms) and matches eager to tolerance; clients the
  lockstep engine cannot vectorize (custom ``local_update``, singleton
  groups) fall back to the exact serial path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.registry import build_method
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.federated import FederatedConfig, FederatedDomainIncrementalSimulation, build_executor
from repro.federated.execution import BatchedExecutor, ParallelExecutor, SerialExecutor
from repro.federated.simulation import SimulationResult


def _simulate(tiny_spec, tiny_backbone_config, config, method_name="finetune"):
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
    method = build_method(method_name, tiny_backbone_config, num_tasks=scenario.num_tasks)
    simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
    with simulation:
        result = simulation.run()
    return result, simulation


def _assert_identical(a: SimulationResult, b: SimulationResult) -> None:
    np.testing.assert_array_equal(a.metrics.matrix, b.metrics.matrix)
    assert a.round_losses == b.round_losses


class TestTapeKernelParity:
    """tape must be bit-for-bit: same accuracies, same round losses."""

    @pytest.mark.parametrize("method_name", ["finetune", "fedlwf"])
    def test_tape_identical_to_eager(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, method_name
    ):
        eager, _ = _simulate(
            tiny_spec, tiny_backbone_config, tiny_federated_config, method_name
        )
        tape, _ = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, kernel="tape"),
            method_name,
        )
        _assert_identical(eager, tape)

    def test_tape_identical_under_parallel_executor(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        # The kernel knob must reach worker processes through the train message.
        eager, _ = _simulate(tiny_spec, tiny_backbone_config, tiny_federated_config)
        tape_parallel, _ = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(
                tiny_federated_config, kernel="tape", executor="parallel", num_workers=2
            ),
        )
        _assert_identical(eager, tape_parallel)

    def test_tape_identical_at_float32(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        eager, _ = _simulate(
            tiny_spec, tiny_backbone_config, replace(tiny_federated_config, dtype="float32")
        )
        tape, _ = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, dtype="float32", kernel="tape"),
        )
        _assert_identical(eager, tape)


def _widened(config):
    """A population where several selected clients share a shard size, so
    lockstep groups of size >= 2 actually form (singletons fall back)."""
    return replace(
        config,
        clients_per_round=3,
        increment=replace(config.increment, initial_clients=6),
    )


class TestBatchedKernelParity:
    def test_batched_matches_eager_within_tolerance(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        wide = _widened(tiny_federated_config)
        eager, _ = _simulate(tiny_spec, tiny_backbone_config, wide)
        batched, simulation = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(wide, kernel="batched"),
        )
        np.testing.assert_allclose(
            batched.metrics.matrix, eager.metrics.matrix, atol=1e-6
        )
        for a, b in zip(eager.round_losses, batched.round_losses):
            assert a == pytest.approx(b, abs=1e-9)
        telemetry = simulation.executor.telemetry
        assert telemetry.lockstep_clients > 0
        assert telemetry.plans_compiled > 0
        assert telemetry.plan_cache_misses == telemetry.plans_compiled
        assert telemetry.plan_cache_hits + telemetry.plan_cache_misses > 0
        assert telemetry.plan_cache_evictions == 0

    def test_batched_fedlwf_with_teacher(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        # Task 1 carries a frozen teacher (unnamed trainable leaves in the
        # traced graph) — the lockstep engine must still vectorize it.
        wide = _widened(tiny_federated_config)
        eager, _ = _simulate(tiny_spec, tiny_backbone_config, wide, "fedlwf")
        batched, simulation = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(wide, kernel="batched"),
            "fedlwf",
        )
        np.testing.assert_allclose(
            batched.metrics.matrix, eager.metrics.matrix, atol=1e-6
        )
        assert simulation.executor.telemetry.lockstep_clients > 0

    def test_batched_refil_falls_back_exactly(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        # refil overrides local_update, so every client takes the serial
        # fallback — which is the *exact* eager path, not a tolerance match.
        eager, _ = _simulate(
            tiny_spec, tiny_backbone_config, tiny_federated_config, "refil"
        )
        batched, simulation = _simulate(
            tiny_spec,
            tiny_backbone_config,
            replace(tiny_federated_config, kernel="batched"),
            "refil",
        )
        _assert_identical(eager, batched)
        telemetry = simulation.executor.telemetry
        assert telemetry.lockstep_clients == 0
        assert telemetry.plans_compiled == 0


class TestPlanErrorFallsBackToEager:
    """A shape whose plan cannot be compiled runs eagerly: the fallback chain
    is plan -> eager, so a compile failure may never move a number."""

    @pytest.mark.parametrize("kernel", ["tape", "batched"])
    def test_compile_failure_leaves_run_hash_identical_to_eager(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, monkeypatch, kernel
    ):
        from repro.autograd import planopt
        from repro.autograd.tape import PlanError
        from repro.federated.checkpoint import simulation_state_hash

        def refuse(plan):
            raise PlanError("injected compile failure")

        monkeypatch.setattr(planopt, "optimize_plan", refuse)
        wide = _widened(tiny_federated_config)
        eager, eager_sim = _simulate(tiny_spec, tiny_backbone_config, wide)
        fallen, fallen_sim = _simulate(
            tiny_spec, tiny_backbone_config, replace(wide, kernel=kernel)
        )
        _assert_identical(eager, fallen)
        assert simulation_state_hash(fallen_sim) == simulation_state_hash(eager_sim)
        if kernel == "batched":
            assert fallen_sim.executor.telemetry.lockstep_clients == 0


class TestKernelConfigSurface:
    def test_config_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            FederatedConfig(kernel="jit")

    def test_config_rejects_batched_with_parallel_executor(self):
        with pytest.raises(ValueError, match="serial"):
            FederatedConfig(kernel="batched", executor="parallel", num_workers=2)

    def test_build_executor_kernel_routing(self):
        assert isinstance(build_executor("serial", kernel="batched"), BatchedExecutor)
        assert isinstance(build_executor("serial", kernel="tape"), SerialExecutor)
        parallel = build_executor("parallel", 2, kernel="tape")
        try:
            assert isinstance(parallel, ParallelExecutor)
            assert parallel.kernel == "tape"
        finally:
            parallel.close()
        with pytest.raises(ValueError):
            build_executor("parallel", 2, kernel="batched")
        with pytest.raises(ValueError):
            build_executor("serial", kernel="jit")

    def test_scaled_config_threads_kernel(self):
        from repro.experiments.config import scaled_config

        config = scaled_config("office_caltech", kernel="batched")
        assert config.federated.kernel == "batched"

    def test_runner_folds_tape_keeps_batched(self):
        from repro.experiments.runner import _normalize_execution_knobs

        base = FederatedConfig()
        assert _normalize_execution_knobs(replace(base, kernel="tape")).kernel == "eager"
        assert _normalize_execution_knobs(replace(base, kernel="eager")).kernel == "eager"
        assert (
            _normalize_execution_knobs(replace(base, kernel="batched")).kernel == "batched"
        )
