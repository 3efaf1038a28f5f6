"""End-to-end integration tests of the federated domain-incremental simulation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import build_method
from repro.continual import DomainIncrementalScenario
from repro.autograd.tensor import default_dtype
from repro.core.trainer import train_refil
from repro.datasets import SyntheticDomainDataset
from repro.datasets.registry import build_dataset
from repro.experiments.config import ExperimentScale, scaled_config
from repro.federated import (
    FederatedDomainIncrementalSimulation,
    aggregation,
    communication,
    simulation_state_hash,
    transport,
)


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


class TestFrozenStaysFrozen:
    """A model's state is what local training changes.  The frozen tokenizer
    (projection and positional table) comes from construction, so it never
    rides a frame, is never averaged and never drifts from its initial bits."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {},
            {"codec": "quantize8", "reduce_backend": "tree", "tree_fanout": 2, "clients_per_round": 3},
        ],
        ids=["identity-flat", "quantize8-tree"],
    )
    def test_tokenizer_stays_off_the_wire_and_at_its_initial_bits(
        self, monkeypatch, tiny_spec, tiny_backbone_config, tiny_federated_config, knobs
    ):
        frames = []
        encode_frame = communication.encode_frame

        def recording(*args, **kwargs):
            frames.append(encode_frame(*args, **kwargs))
            return frames[-1]

        for module in (communication, transport, aggregation):
            monkeypatch.setattr(module, "encode_frame", recording)
        config = replace(tiny_federated_config, rounds_per_task=2, **knobs)
        scenario = _scenario(tiny_spec)
        method = build_method("refil", tiny_backbone_config, num_tasks=scenario.num_tasks)
        simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
        simulation.run()

        assert not [key for key in simulation.server.global_state if "tokenizer" in key]
        assert any(frame.kind == "upload" for frame in frames)
        for frame in frames:
            packed, _ = communication.decode_frame(
                frame, communication.build_codec(frame.codec), packed=True
            )
            assert not [row for row in packed.table if "tokenizer" in row[0]], frame.kind
        with default_dtype(config.dtype):
            fresh = method.build_model()
        frozen = [
            (name, param.data)
            for name, param in simulation.model.named_parameters()
            if not param.requires_grad
        ]
        built = dict(fresh.named_parameters())
        assert [name for name, _ in frozen] == [
            "backbone.tokenizer.projection.weight", "backbone.tokenizer.projection.bias"
        ]
        for name, data in frozen:
            np.testing.assert_array_equal(data, built[name].data)
        positional = simulation.model.backbone.tokenizer.positional
        np.testing.assert_array_equal(positional, fresh.backbone.tokenizer.positional)
        assert positional.dtype == np.dtype(config.dtype)


#: ``simulation_state_hash`` after a whole run of each method on
#: office_caltech at the ``tiny`` scale, seed 0, at each compute dtype (float64
#: was the default until float32 replaced it; its hashes are the ones pinned
#: before).  A refactor of the server, transport or round loop that claims to
#: move nothing must leave these bits alone, under both executors.  Re-pinned
#: when the frozen tokenizer left the model's state: the run before it, with
#: its frozen entries reset to their initial values after every assignment,
#: hashes to these same values over the keys that remain.  Re-pinned for a
#: new summation order of the conv weight gradient and the batch-norm
#: statistics, and again when the transformer block came to compute the
#: [CLS] row only (float64 states within 8.1e-13 of the full-sequence run's).
_PINNED_STATE_HASHES = {
    "float64": {
        "finetune": "c6afa1ecad689a543effd978529112c0ddd47c25d0494af2c982abaf2fec8874",
        "fedlwf": "c670287420a42a07245f0a4f28401469b929186474a8f269875c8561b8f81770",
        "fedewc": "2fae56945c8942d1e9322649f2b6cc8281f592b608c3f020e5abe9efc1d3e6ed",
        "fedl2p": "67cde6c071b646778c4e91674e3a0ce0ef81395cb3fd7211c64ed081e7c84778",
        "feddualprompt": "fad0333ef022545a8e4e76d80c4e5c6b8daeb8e3d3e20f386b2a815d01695a13",
        "refil": "638d44b3d3662308963de6d16b46c1260a9c84af7bdecd4e5fe05bb83b7dc683",
    },
    "float32": {
        "finetune": "5d2620db704296556e430428d3acbf546bba1e278b9f764b55aa933d627cf0ce",
        "fedlwf": "637f756971186cdd52996a1b843f47ff2e1559f14d75ef94d17f802106c51c89",
        "fedewc": "f8c35dc9f3a99e0cb13510ac6d98b825cabb87a9c12f3dd9acef8a37b8055a4d",
        "fedl2p": "0d741e2ad197144b684282683997fccb040192d99658d1dd444882bbc0884228",
        "feddualprompt": "d5aa069b12bbb01f82ecc2cba41297ed7da9c52d149fe02e37d0e0f704a225ad",
        "refil": "bb2e04e0ac151a975c58277ab01b68e920ef2b8ffb7e1b342ebeda35e0a21c19",
    },
}


class TestPinnedTrajectories:
    @pytest.mark.parametrize("dtype", list(_PINNED_STATE_HASHES))
    @pytest.mark.parametrize("method_name", list(_PINNED_STATE_HASHES["float64"]))
    def test_state_hash_matches_the_pinned_run(self, method_name, dtype):
        config = scaled_config("office_caltech", ExperimentScale.TINY, seed=0)
        scenario = DomainIncrementalScenario(
            build_dataset("office_caltech", spec_override=config.spec), num_tasks=config.num_tasks
        )
        serial = replace(config.federated, dtype=dtype)
        for federated in (serial, replace(serial, executor="parallel", num_workers=2)):
            method = build_method(method_name, config.backbone, num_tasks=scenario.num_tasks)
            simulation = FederatedDomainIncrementalSimulation(scenario, method, federated)
            simulation.run()
            assert simulation_state_hash(simulation) == _PINNED_STATE_HASHES[dtype][method_name], (
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
