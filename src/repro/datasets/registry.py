"""Dataset registry: look datasets up by the names used in the paper's tables."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.datasets.digits_five import DIGITS_FIVE_ALTERNATE_ORDER, DIGITS_FIVE_SPEC
from repro.datasets.domainnet import DOMAINNET_ALTERNATE_ORDER, FED_DOMAINNET_SPEC
from repro.datasets.office_caltech import OFFICE_CALTECH_ALTERNATE_ORDER, OFFICE_CALTECH_SPEC
from repro.datasets.pacs import PACS_ALTERNATE_ORDER, PACS_SPEC
from repro.datasets.synthetic import DomainDatasetSpec, SyntheticDomainDataset

_SPECS: Dict[str, DomainDatasetSpec] = {
    "digits_five": DIGITS_FIVE_SPEC,
    "office_caltech": OFFICE_CALTECH_SPEC,
    "pacs": PACS_SPEC,
    "fed_domainnet": FED_DOMAINNET_SPEC,
}

_ALTERNATE_ORDERS: Dict[str, Tuple[str, ...]] = {
    "digits_five": DIGITS_FIVE_ALTERNATE_ORDER,
    "office_caltech": OFFICE_CALTECH_ALTERNATE_ORDER,
    "pacs": PACS_ALTERNATE_ORDER,
    "fed_domainnet": DOMAINNET_ALTERNATE_ORDER,
}


def available_datasets() -> Tuple[str, ...]:
    """Names of every registered dataset."""
    return tuple(sorted(_SPECS))


def get_dataset_spec(name: str) -> DomainDatasetSpec:
    """Look up the spec of a registered dataset by name."""
    try:
        return _SPECS[name]
    except KeyError as error:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(available_datasets())}"
        ) from error


def get_alternate_domain_order(name: str) -> Tuple[str, ...]:
    """The shuffled domain order used for the Table II / IV experiments."""
    get_dataset_spec(name)
    return _ALTERNATE_ORDERS[name]


def build_dataset(name: str, spec_override: Optional[DomainDatasetSpec] = None) -> SyntheticDomainDataset:
    """Instantiate a registered dataset (optionally with a scaled-down spec)."""
    spec = spec_override if spec_override is not None else get_dataset_spec(name)
    return SyntheticDomainDataset(spec)


__all__ = [
    "available_datasets",
    "get_dataset_spec",
    "get_alternate_domain_order",
    "build_dataset",
]
