"""Datasets: procedural domain-shift image data and federated partitioning.

The paper evaluates on four public image datasets with domain shift
(Digits-Five, OfficeCaltech10, PACS, DomainNet).  Those datasets cannot be
downloaded in this offline environment, so :mod:`repro.datasets.synthetic`
provides a procedural generator in which each *class* is a parametric spatial
pattern and each *domain* applies a distinct rendering style (colour mixing,
background, texture, noise, inversion).  The wrappers in
``digits_five`` / ``office_caltech`` / ``pacs`` / ``domainnet`` mirror the
class/domain structure and relative sizes of the real datasets; see DESIGN.md
for the substitution rationale.
"""

from repro.datasets.base import ArrayDataset, DataLoader
from repro.datasets.synthetic import (
    DomainDatasetSpec,
    DomainStyle,
    SyntheticDomainDataset,
    generate_domain_split,
)
from repro.datasets.registry import (
    available_datasets,
    build_dataset,
    get_alternate_domain_order,
    get_dataset_spec,
)
from repro.datasets.partition import quantity_shift_partition, partition_domain_across_clients

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "DomainDatasetSpec",
    "DomainStyle",
    "SyntheticDomainDataset",
    "generate_domain_split",
    "available_datasets",
    "build_dataset",
    "get_alternate_domain_order",
    "get_dataset_spec",
    "quantity_shift_partition",
    "partition_domain_across_clients",
]
