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
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.datasets.registry import get_dataset_spec
from repro.datasets.synthetic import DomainDatasetSpec
from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.faults import FaultSpec
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
    clients_per_round: Optional[int] = None,
    transfer_fraction: float = 0.8,
    initial_clients: Optional[int] = None,
    increment_per_task: Optional[int] = None,
    num_tasks: Optional[int] = None,
    executor: str = "serial",
    num_workers: int = 0,
    dtype: str = "float64",
    kernel: str = "eager",
    eval_executor: str = "serial",
    eval_every: int = 0,
    codec: str = "identity",
    bandwidth_limit: int = 0,
    drop_stragglers: bool = False,
    mode: str = "sync",
    device_profile: str = "instant",
    buffer_size: int = 0,
    staleness_decay: float = 0.5,
    sim_time_limit: float = 0.0,
    faults: Optional[FaultSpec] = None,
    retries: int = 2,
    retry_backoff: float = 0.5,
    checkpoint_every: int = 0,
    checkpoint_dir: str = "",
    checkpoint_keep: int = 0,
    resume: bool = False,
    serve: bool = False,
    publish_every: int = 0,
    registry_dir: str = "",
    serve_codec: str = "identity",
    virtual_clients: bool = False,
    population: int = 0,
    reduce_backend: str = "flat",
    tree_fanout: int = 2,
) -> ScaledExperimentConfig:
    """Build the full configuration for one dataset at one scale.

    The optional overrides expose exactly the knobs varied by Tables V and VI
    (selected clients, transfer fraction, initial clients), plus the
    performance knobs of the round execution engine: ``executor``
    (``"serial"`` / ``"parallel"``), ``num_workers`` (0 = one per CPU),
    ``dtype`` (``"float64"`` / ``"float32"``), the kernel plane's ``kernel``
    (``"eager"`` closure autograd / ``"tape"`` compiled-plan replay,
    hash-identical to eager / ``"batched"`` lockstep multi-client
    vectorization, serial-executor-only), the evaluation plane's
    ``eval_executor`` (``"serial"`` / ``"parallel"`` seen-task evaluation)
    and ``eval_every`` (mid-task evaluation every ``k`` rounds, 0 = off),
    and the communication plane's wire
    ``codec`` (``"identity"`` / ``"delta"`` lossless, ``"quantize8"`` /
    ``"quantize16"`` / ``"topk[:f]"`` lossy), ``bandwidth_limit`` (per-client
    uplink byte budget per round, 0 = unlimited) and ``drop_stragglers``
    (drop vs. defer over-budget uploads), and the temporal plane's ``mode``
    (``"sync"`` / ``"async"`` / ``"buffered"``), ``device_profile``
    (``"instant"`` / ``"homogeneous"`` / ``"mild"`` / ``"moderate"`` /
    ``"extreme"`` heterogeneity tiers), ``buffer_size`` (buffered mode's K,
    0 = clients_per_round), ``staleness_decay`` (polynomial staleness
    exponent) and ``sim_time_limit`` (simulated-seconds budget, 0 =
    unlimited), and the fault plane's ``faults`` (a
    :class:`~repro.federated.faults.FaultSpec` schedule, None = no faults),
    ``retries`` / ``retry_backoff`` (upload retry bound and backoff seconds),
    and ``checkpoint_every`` / ``checkpoint_dir`` / ``checkpoint_keep`` /
    ``resume`` (crash-safe checkpoint cadence, location, retention and
    relaunch behaviour), the serving plane's ``serve`` / ``publish_every`` /
    ``registry_dir`` / ``serve_codec`` (online inference with a versioned
    model registry: whether to run a live front end, mid-task publish
    cadence, where versions land, and the snapshot compression codec), and
    the hierarchy
    plane's ``virtual_clients`` (lazy ``(seed, partition-spec)`` client
    recipes, materialized per cohort), ``population`` (fleet size for
    schedule-free virtual populations, 0 = schedule-driven),
    ``reduce_backend`` (``"flat"`` star FedAvg / ``"tree"`` fan-out edge
    aggregation) and ``tree_fanout`` (children per tree node).
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
    federated = FederatedConfig(
        increment=ClientIncrementConfig(
            initial_clients=initial_clients if initial_clients is not None else knobs["initial_clients"],
            increment_per_task=(
                increment_per_task if increment_per_task is not None else knobs["increment_per_task"]
            ),
            transfer_fraction=transfer_fraction,
            seed=seed,
        ),
        clients_per_round=clients_per_round if clients_per_round is not None else knobs["clients_per_round"],
        rounds_per_task=knobs["rounds_per_task"],
        local=LocalTrainingConfig(
            local_epochs=knobs["local_epochs"],
            batch_size=16,
            learning_rate=knobs["learning_rate"],
        ),
        seed=seed,
        executor=executor,
        num_workers=num_workers,
        dtype=dtype,
        kernel=kernel,
        eval_executor=eval_executor,
        eval_every=eval_every,
        codec=codec,
        bandwidth_limit=bandwidth_limit,
        drop_stragglers=drop_stragglers,
        mode=mode,
        device_profile=device_profile,
        buffer_size=buffer_size,
        staleness_decay=staleness_decay,
        sim_time_limit=sim_time_limit,
        faults=faults if faults is not None else FaultSpec(),
        retries=retries,
        retry_backoff=retry_backoff,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep=checkpoint_keep,
        resume=resume,
        serve=serve,
        publish_every=publish_every,
        registry_dir=registry_dir,
        serve_codec=serve_codec,
        virtual_clients=virtual_clients,
        population=population,
        reduce_backend=reduce_backend,
        tree_fanout=tree_fanout,
    )
    return ScaledExperimentConfig(
        dataset_name=dataset_name,
        spec=spec,
        backbone=backbone,
        federated=federated,
        num_tasks=tasks,
    )


__all__ = ["ExperimentScale", "ScaledExperimentConfig", "get_scale", "scaled_config"]
