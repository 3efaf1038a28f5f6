"""Shared fixtures: tiny datasets, backbones and federated configs used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import get_dataset_spec
from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientIncrementConfig
from repro.models.backbone import BackboneConfig


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
