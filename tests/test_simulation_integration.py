"""End-to-end integration tests of the federated domain-incremental simulation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import build_method
from repro.continual import DomainIncrementalScenario
from repro.core.trainer import train_refil
from repro.datasets import SyntheticDomainDataset
from repro.datasets.registry import build_dataset
from repro.experiments.config import ExperimentScale, scaled_config
from repro.federated import FederatedDomainIncrementalSimulation, simulation_state_hash


def _scenario(tiny_spec, num_tasks=2):
    return DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=num_tasks)


class TestSimulation:
    def test_finetune_end_to_end(self, tiny_spec, tiny_backbone_config, tiny_federated_config):
        scenario = _scenario(tiny_spec)
        method = build_method("finetune", tiny_backbone_config, num_tasks=scenario.num_tasks)
        result = FederatedDomainIncrementalSimulation(scenario, method, tiny_federated_config).run()
        assert result.method_name == "Finetune"
        assert result.metrics.matrix.shape == (2, 2)
        assert len(result.per_task_accuracy) == 2
        assert len(result.round_losses) == tiny_federated_config.rounds_per_task * scenario.num_tasks
        assert result.communication.rounds == len(result.round_losses)
        assert result.schedule_trace[0]["total"] == tiny_federated_config.increment.initial_clients
        assert 0.0 <= result.metrics.average <= 1.0

    def test_refil_end_to_end(self, tiny_spec, tiny_backbone_config, tiny_federated_config):
        scenario = _scenario(tiny_spec)
        method = build_method("refil", tiny_backbone_config, num_tasks=scenario.num_tasks)
        result = FederatedDomainIncrementalSimulation(scenario, method, tiny_federated_config).run()
        assert result.metrics.matrix.shape == (2, 2)
        assert not method.store.is_empty
        assert all(np.isfinite(loss) for loss in result.round_losses)

    def test_accuracy_matrix_is_complete(self, tiny_spec, tiny_backbone_config, tiny_federated_config):
        scenario = _scenario(tiny_spec)
        method = build_method("fedlwf", tiny_backbone_config, num_tasks=scenario.num_tasks)
        simulation = FederatedDomainIncrementalSimulation(scenario, method, tiny_federated_config)
        simulation.run()
        assert simulation.evaluator.accuracy_matrix.is_complete()

    def test_determinism_with_same_seed(self, tiny_spec, tiny_backbone_config, tiny_federated_config):
        scenario = _scenario(tiny_spec)

        def run_once():
            method = build_method("finetune", tiny_backbone_config, num_tasks=scenario.num_tasks)
            return FederatedDomainIncrementalSimulation(
                scenario, method, tiny_federated_config
            ).run()

        first = run_once()
        second = run_once()
        assert np.allclose(first.metrics.matrix, second.metrics.matrix, equal_nan=True)
        assert np.allclose(first.round_losses, second.round_losses)

    def test_in_between_clients_concatenate_old_and_new_data(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        scenario = _scenario(tiny_spec)
        method = build_method("finetune", tiny_backbone_config, num_tasks=scenario.num_tasks)
        simulation = FederatedDomainIncrementalSimulation(scenario, method, tiny_federated_config)
        simulation.run_task(scenario.task(0))
        sizes_after_first = {
            cid: len(simulation.virtual.materialize(cid))
            for cid in simulation.eligible_clients(scenario.task(0))
        }
        simulation.run_task(scenario.task(1))
        assignment = simulation.schedule.assignment_for_task(1)
        carried = [cid for cid in assignment.in_between_clients if cid in sizes_after_first]
        assert carried
        for client_id in carried:
            assert len(simulation.virtual.materialize(client_id)) > sizes_after_first[client_id]

    def test_communication_ledger_grows_with_rounds(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        scenario = _scenario(tiny_spec)
        method = build_method("refil", tiny_backbone_config, num_tasks=scenario.num_tasks)
        result = FederatedDomainIncrementalSimulation(scenario, method, tiny_federated_config).run()
        assert result.communication.uploaded_bytes > 0
        assert result.communication.broadcast_bytes > 0


#: ``simulation_state_hash`` after a whole run of each method on
#: office_caltech at the ``tiny`` scale, seed 0.  A refactor of the server,
#: transport or round loop that claims to move nothing must leave these bits
#: alone, under both executors.
_PINNED_STATE_HASHES = {
    "finetune": "9170c981bc8c974bbf402ccd04ec8ad625067851e3ac85aecae5c10ea815bcd6",
    "fedlwf": "92d893a67526878b39bbdb128a7904b2f6dd3fceb16db198d922321799981fd3",
    "fedewc": "0326669456056f0eeb223d8f7244c661c2192c6c88c1d9ff8708d226171f864b",
    "fedl2p": "9def2eb057a47d297719aa985e563ee9b27c5edef513db0b8178c84d44f20b17",
    "feddualprompt": "bdd5ba51d3a52386b78fb9ef31cbadc343880768f609942475666dc387eedd0b",
    "refil": "1c7769ffa288c95e06c9ce8046fd0d34b70c1e7cc1722ecb11449171a236ffc0",
}


class TestPinnedTrajectories:
    @pytest.mark.parametrize("method_name", list(_PINNED_STATE_HASHES))
    def test_state_hash_matches_the_pinned_run(self, method_name):
        config = scaled_config("office_caltech", ExperimentScale.TINY, seed=0)
        scenario = DomainIncrementalScenario(
            build_dataset("office_caltech", spec_override=config.spec), num_tasks=config.num_tasks
        )
        for federated in (
            config.federated,
            replace(config.federated, executor="parallel", num_workers=2),
        ):
            method = build_method(method_name, config.backbone, num_tasks=scenario.num_tasks)
            simulation = FederatedDomainIncrementalSimulation(scenario, method, federated)
            simulation.run()
            assert simulation_state_hash(simulation) == _PINNED_STATE_HASHES[method_name], (
                federated.executor
            )


class TestTrainerWrapper:
    def test_train_refil_happy_path(self, tiny_spec, tiny_federated_config):
        result = train_refil(
            dataset_name="office_caltech",
            federated=tiny_federated_config,
            dataset_spec=tiny_spec,
            num_tasks=2,
        )
        assert result.method_name == "RefFiL"
        assert result.metrics.matrix.shape == (2, 2)
