"""Shared fixtures: tiny datasets, backbones and federated configs used across the
suite, and ``simulate``, the one way a test runs a whole simulation on them."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.baselines import build_method
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.datasets.registry import get_dataset_spec
from repro.federated import FederatedDomainIncrementalSimulation
from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientIncrementConfig
from repro.models.backbone import BackboneConfig


# The wire-path properties (quantize against the per-array quantizer, the tree
# reduce against the per-key one) take their example count from the loaded
# profile: Hypothesis' default 100 in tier-1, 1,000 under
# ``HYPOTHESIS_PROFILE=deep`` (CI's sweep).  Tests that pin a count keep it.
settings.register_profile("deep", max_examples=1000)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def pytest_ignore_collect(collection_path, config):
    """Keep the paper-fidelity gate (six `small`-scale runs) out of tier-1: it
    is collected only under ``-m slow`` or when its path is given."""
    if collection_path.name == "test_fidelity.py":
        return "slow" not in config.option.markexpr
    return None


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_spec():
    """A micro OfficeCaltech-like spec: 3 classes, 4 domains, very few samples."""
    return get_dataset_spec("office_caltech").scaled(
        train_per_domain=24, test_per_domain=12, num_classes=3
    )


@pytest.fixture
def tiny_backbone_config(tiny_spec) -> BackboneConfig:
    return BackboneConfig(
        image_size=tiny_spec.image_size,
        num_classes=tiny_spec.num_classes,
        base_width=4,
        embed_dim=16,
        num_heads=2,
        seed=7,
    )


@pytest.fixture
def tiny_federated_config() -> FederatedConfig:
    return FederatedConfig(
        increment=ClientIncrementConfig(
            initial_clients=3, increment_per_task=1, transfer_fraction=0.8, seed=7
        ),
        clients_per_round=2,
        rounds_per_task=1,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        seed=7,
    )


@pytest.fixture
def simulate(tiny_spec, tiny_backbone_config):
    """``simulate(config, method)`` -> ``(simulation, result)`` of one run over
    the tiny spec's first ``num_tasks`` domains.  ``method`` is a registry name
    or a built method; ``run=False`` returns the simulation without running it."""

    def simulate(config, method="finetune", *, num_tasks=2, run=True):
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=num_tasks)
        if isinstance(method, str):
            method = build_method(method, tiny_backbone_config, num_tasks=num_tasks)
        simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
        return (simulation, simulation.run()) if run else simulation

    return simulate
