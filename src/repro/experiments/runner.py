"""Run one method on one dataset configuration (with caching across table builders).

Several of the paper's tables are different views of the same runs: Table I is
the Avg/Last summary of the per-task breakdowns in Table III, and Table II
summarises Table IV.  The runner therefore memoises results by their full
configuration so a bench session that regenerates all tables trains each
(method, dataset, config) combination exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.baselines.registry import build_method
from repro.continual.metrics import ContinualMetrics
from repro.continual.scenario import DomainIncrementalScenario
from repro.core.dpcl import DPCLConfig
from repro.datasets.registry import build_dataset
from repro.experiments.config import ScaledExperimentConfig
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedDomainIncrementalSimulation, SimulationResult
from repro.utils.logging_utils import get_logger

logger = get_logger(__name__)


@dataclass
class MethodRunResult:
    """One method's outcome on one dataset configuration."""

    method_name: str
    dataset_name: str
    metrics: ContinualMetrics
    simulation: SimulationResult
    domain_names: Tuple[str, ...]


_RUN_CACHE: Dict[tuple, MethodRunResult] = {}


def clear_run_cache() -> None:
    """Drop all memoised runs (used by tests to force re-execution)."""
    _RUN_CACHE.clear()


def _normalize_execution_knobs(federated: FederatedConfig) -> FederatedConfig:
    """The run-cache form of a config: see :meth:`FederatedConfig.canonical`."""
    return federated.canonical()


def _cache_key(
    method_name: str,
    config: ScaledExperimentConfig,
    domain_order: Optional[Sequence[int]],
    dpcl: Optional[DPCLConfig],
) -> tuple:
    return (
        method_name,
        config.dataset_name,
        config.spec,
        config.backbone,
        _normalize_execution_knobs(config.federated),
        config.num_tasks,
        tuple(domain_order) if domain_order is not None else None,
        dpcl,
    )


def run_method_on_dataset(
    method_name: str,
    config: ScaledExperimentConfig,
    domain_order: Optional[Sequence[int]] = None,
    dpcl: Optional[DPCLConfig] = None,
    use_cache: bool = True,
) -> MethodRunResult:
    """Train ``method_name`` on the configured dataset and return its metrics.

    Parameters
    ----------
    method_name:
        A registry name (see :func:`repro.baselines.registry.available_methods`).
    config:
        Output of :func:`repro.experiments.config.scaled_config`.
    domain_order:
        Optional permutation of domain indices (the Table II / IV "new domain
        order" experiments).
    dpcl:
        Optional RefFiL temperature configuration override (Table VIII).
    use_cache:
        Reuse a previous identical run when available.
    """
    key = _cache_key(method_name, config, domain_order, dpcl)
    if use_cache and key in _RUN_CACHE:
        return _RUN_CACHE[key]

    dataset = build_dataset(config.dataset_name, spec_override=config.spec)
    if domain_order is not None:
        dataset = dataset.reordered(domain_order)
    scenario = DomainIncrementalScenario(dataset, num_tasks=config.num_tasks)
    method = build_method(
        method_name,
        backbone=config.backbone,
        num_tasks=scenario.num_tasks,
        dpcl=dpcl,
    )
    logger.info(
        "running %s on %s (%s)", method.name, config.dataset_name, config.describe()
    )
    # run() tears its own resources down, but only on the paths it controls;
    # the context manager guarantees both worker pools (training and any
    # dedicated eval pool) are shut down even if construction-adjacent code
    # between enter and run raises.
    with FederatedDomainIncrementalSimulation(scenario, method, config.federated) as simulation:
        outcome = simulation.run()
    result = MethodRunResult(
        method_name=method.name,
        dataset_name=config.dataset_name,
        metrics=outcome.metrics,
        simulation=outcome,
        domain_names=tuple(scenario.domain_names),
    )
    if use_cache:
        _RUN_CACHE[key] = result
    return result


__all__ = ["MethodRunResult", "run_method_on_dataset", "clear_run_cache"]
