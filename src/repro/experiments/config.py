"""Scale presets for the reproduction experiments.

The paper's setup (20 clients, 30 rounds per task, 20 local epochs, full-size
datasets, ResNet10 on 32x32/224x224 images) is far beyond what a pure-numpy
CPU substrate can run in CI.  Three presets keep the *code path identical*
and only change counts:

* ``tiny``  -- what the benchmark suite and integration tests run by default.
* ``small`` -- a few-times larger setting that resolves method differences
  more clearly (used to produce the numbers recorded in EXPERIMENTS.md when
  time allows).
* ``paper`` -- mirrors the paper's client counts and task structure with the
  synthetic datasets at full per-domain size; only for offline runs.

Select a preset with the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from repro.datasets.registry import get_dataset_spec
from repro.datasets.synthetic import DomainDatasetSpec
from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientIncrementConfig
from repro.models.backbone import BackboneConfig


class ExperimentScale(str, Enum):
    """Named experiment scales."""

    TINY = "tiny"
    SMALL = "small"
    PAPER = "paper"


def get_scale(default: ExperimentScale = ExperimentScale.TINY) -> ExperimentScale:
    """Read the scale from the ``REPRO_SCALE`` environment variable."""
    raw = os.environ.get("REPRO_SCALE", default.value).strip().lower()
    try:
        return ExperimentScale(raw)
    except ValueError as error:
        raise ValueError(
            f"invalid REPRO_SCALE {raw!r}; choose from "
            f"{', '.join(scale.value for scale in ExperimentScale)}"
        ) from error


@dataclass(frozen=True)
class ScaledExperimentConfig:
    """A dataset spec, backbone and federated configuration for one run."""

    dataset_name: str
    spec: DomainDatasetSpec
    backbone: BackboneConfig
    federated: FederatedConfig
    num_tasks: int

    def describe(self) -> Dict[str, object]:
        return {
            "dataset": self.dataset_name,
            "classes": self.spec.num_classes,
            "tasks": self.num_tasks,
            "train_per_domain": self.spec.train_per_domain,
            "initial_clients": self.federated.increment.initial_clients,
            "clients_per_round": self.federated.clients_per_round,
            "rounds_per_task": self.federated.rounds_per_task,
            "local_epochs": self.federated.local.local_epochs,
        }


#: Per-scale knobs.  num_classes_cap limits the synthetic class count so tiny
#: runs stay learnable from very few samples.
_SCALE_KNOBS = {
    ExperimentScale.TINY: {
        "train_per_domain": 96,
        "test_per_domain": 40,
        "num_classes_cap": 4,
        "initial_clients": 6,
        "increment_per_task": 1,
        "clients_per_round": 3,
        "rounds_per_task": 2,
        "local_epochs": 2,
        "base_width": 8,
        "embed_dim": 32,
        "learning_rate": 0.08,
    },
    ExperimentScale.SMALL: {
        "train_per_domain": 160,
        "test_per_domain": 64,
        "num_classes_cap": 6,
        "initial_clients": 10,
        "increment_per_task": 2,
        "clients_per_round": 5,
        "rounds_per_task": 3,
        "local_epochs": 2,
        "base_width": 12,
        "embed_dim": 32,
        "learning_rate": 0.08,
    },
    ExperimentScale.PAPER: {
        "train_per_domain": None,  # keep the spec defaults
        "test_per_domain": None,
        "num_classes_cap": None,
        "initial_clients": 20,
        "increment_per_task": 2,
        "clients_per_round": 10,
        "rounds_per_task": 30,
        "local_epochs": 20,
        "base_width": 16,
        "embed_dim": 48,
        "learning_rate": 0.06,
    },
}

#: The paper uses a smaller federation for OfficeCaltech10 because of its size.
_OFFICE_CALTECH_PAPER_OVERRIDES = {
    "initial_clients": 10,
    "increment_per_task": 1,
    "clients_per_round": 5,
}


def scaled_config(
    dataset_name: str,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    transfer_fraction: float = 0.8,
    initial_clients: Optional[int] = None,
    increment_per_task: Optional[int] = None,
    num_tasks: Optional[int] = None,
    **federated,
) -> ScaledExperimentConfig:
    """Build the full configuration for one dataset at one scale.

    The named parameters are what the scale preset itself is built from
    (``seed`` also seeds the backbone and the increment schedule; the
    transfer fraction and initial clients are the knobs Tables V and VI vary).
    ``**federated`` takes any :class:`~repro.federated.config.FederatedConfig`
    knob by name — see its docstring for all of them — and wins over the
    preset's value (``clients_per_round=2``, ``increment=...``); ``None``
    keeps the preset or default (``faults=None`` means no faults).  An unknown
    keyword raises ``TypeError``.
    """
    scale = scale if scale is not None else get_scale()
    knobs = dict(_SCALE_KNOBS[scale])
    if scale is ExperimentScale.PAPER and dataset_name == "office_caltech":
        knobs.update(_OFFICE_CALTECH_PAPER_OVERRIDES)

    base_spec = get_dataset_spec(dataset_name)
    cap = knobs["num_classes_cap"]
    spec = base_spec.scaled(
        train_per_domain=knobs["train_per_domain"],
        test_per_domain=knobs["test_per_domain"],
        num_classes=min(base_spec.num_classes, cap) if cap is not None else None,
    )
    tasks = num_tasks if num_tasks is not None else len(spec.domains)

    backbone = BackboneConfig(
        image_size=spec.image_size,
        num_classes=spec.num_classes,
        base_width=knobs["base_width"],
        embed_dim=knobs["embed_dim"],
        seed=seed,
    )
    preset = dict(
        increment=ClientIncrementConfig(
            initial_clients=initial_clients if initial_clients is not None else knobs["initial_clients"],
            increment_per_task=(
                increment_per_task if increment_per_task is not None else knobs["increment_per_task"]
            ),
            transfer_fraction=transfer_fraction,
            seed=seed,
        ),
        clients_per_round=knobs["clients_per_round"],
        rounds_per_task=knobs["rounds_per_task"],
        local=LocalTrainingConfig(
            local_epochs=knobs["local_epochs"],
            batch_size=16,
            learning_rate=knobs["learning_rate"],
        ),
        seed=seed,
    )
    preset.update({name: value for name, value in federated.items() if value is not None})
    return ScaledExperimentConfig(
        dataset_name=dataset_name,
        spec=spec,
        backbone=backbone,
        federated=FederatedConfig(**preset),
        num_tasks=tasks,
    )


__all__ = ["ExperimentScale", "ScaledExperimentConfig", "get_scale", "scaled_config"]
