#!/usr/bin/env python3
"""Inspect RefFiL's prompt machinery outside of a full federated run.

This example exercises the lower-level public API directly:

1. build the composite RefFiL model (backbone + CDAP generator),
2. generate instance-level prompts for batches from two different synthetic
   domains and show that the generator separates them,
3. average them into per-class Local Prompt Groups (what a client uploads),
4. cluster the groups on the "server" with FINCH and show the clusters align
   with domains,
5. round-trip the clustered store through its broadcast payload (the
   script exits non-zero if a single bit differs),
6. compute the decayed DPCL temperature schedule over the task stream.

Run with:

    python examples/prompt_clustering_demo.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.core.clustering import cluster_prompt_groups
from repro.core.dpcl import DPCLConfig, decayed_temperature
from repro.core.model import RefFiLModel
from repro.core.prompts import GlobalPromptStore, LocalPromptCollector
from repro.datasets.base import DataLoader
from repro.datasets.registry import get_dataset_spec
from repro.datasets.synthetic import generate_domain_split
from repro.models.backbone import BackboneConfig


def collect_prompt_groups(model: RefFiLModel, spec, domain_index: int, task_id: int):
    """Run the CDAP generator over one domain and average prompts per class."""
    collector = LocalPromptCollector(model.embed_dim)
    data = generate_domain_split(spec, domain_index, "train")
    with no_grad():
        for images, labels in DataLoader(data, batch_size=16, shuffle=False):
            prompts = model.generate_prompts(images, task_id=task_id)
            collector.add_batch(prompts, labels)
    return collector.local_prompt_group()


def store_survives_broadcast(store: GlobalPromptStore) -> bool:
    """True when ``from_payload(to_payload())`` gives back every class, in order, bit for bit."""
    rebuilt = GlobalPromptStore.from_payload(
        store.to_payload(), num_classes=store.num_classes, embed_dim=store.embed_dim
    )
    return list(rebuilt.representatives) == list(store.representatives) and all(
        rebuilt.representatives[label].tobytes() == vectors.tobytes()
        for label, vectors in store.representatives.items()
    )


def main() -> int:
    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=64, test_per_domain=32, num_classes=4
    )
    model = RefFiLModel(
        BackboneConfig(image_size=spec.image_size, num_classes=spec.num_classes,
                       base_width=8, embed_dim=32, seed=0),
        prompt_length=4,
        max_tasks=spec.num_domains,
    )

    print("collecting Local Prompt Groups from two domains ...")
    group_domain0 = collect_prompt_groups(model, spec, domain_index=0, task_id=0)
    group_domain1 = collect_prompt_groups(model, spec, domain_index=1, task_id=1)

    for label in sorted(group_domain0):
        a, b = group_domain0[label], group_domain1[label]
        cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))
        print(f"  class {label}: cosine(domain0 LPG, domain1 LPG) = {cosine:+.3f}")

    print("\nclustering the uploaded prompt groups on the server (FINCH) ...")
    clustered = cluster_prompt_groups([group_domain0, group_domain1])
    store = GlobalPromptStore(num_classes=spec.num_classes, embed_dim=model.embed_dim)
    store.replace(clustered)
    for label in sorted(clustered):
        print(f"  class {label}: {clustered[label].shape[0]} representative prompt(s)")
    print(f"  broadcast payload size: {store.payload_bytes()} bytes")
    if not store_survives_broadcast(store):
        print("  the store changed on its way through the broadcast payload", file=sys.stderr)
        return 1
    print("  store round-trips through its broadcast payload bit for bit")

    print("\nDPCL temperature decay over the task stream (paper Eq. 10):")
    config = DPCLConfig()
    for task in range(1, spec.num_domains + 1):
        print(f"  task {task}: tau' = {decayed_temperature(config, task):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
