"""RefFiL server-side logic: FedAvg plus global prompt clustering.

Paper Algorithm 1, lines 8-10: after aggregating the model weights the server
collects the uploaded Local Prompt Groups, clusters them per class with FINCH
(together with the representatives it already holds, so prompts from earlier
domains are not lost) and broadcasts the clustered store with the next global
model.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.clustering import cluster_prompt_groups
from repro.core.prompts import GlobalPromptStore
from repro.federated.communication import ClientUpdate
from repro.federated.server import FederatedServer


class RefFiLPromptAggregator:
    """Maintains the clustered global prompt store across rounds and tasks."""

    def __init__(self, num_classes: int, embed_dim: int, max_representatives: int = 8) -> None:
        self.store = GlobalPromptStore(num_classes, embed_dim)
        self.max_representatives = max_representatives

    def ingest(self, updates: List[ClientUpdate]) -> GlobalPromptStore:
        """Cluster freshly uploaded prompt groups into the store and return it."""
        uploaded = []
        for update in updates:
            groups = update.payload.get("prompt_groups", {})
            if not groups:
                continue
            uploaded.append({int(label): np.asarray(vector) for label, vector in groups.items()})
        if uploaded:
            clustered = cluster_prompt_groups(
                uploaded,
                existing=self.store.representatives,
                max_representatives=self.max_representatives,
            )
            self.store.replace(clustered)
        return self.store

    def broadcast_payload(self) -> Dict[str, np.ndarray]:
        """The payload attached to every broadcast: the clustered prompts."""
        return self.store.to_payload()


def aggregate_with_prompts(
    server: FederatedServer,
    aggregator: RefFiLPromptAggregator,
    updates: List[ClientUpdate],
) -> None:
    """One full RefFiL aggregation step: FedAvg, then prompt clustering, then payload refresh."""
    server.aggregate(updates)
    aggregator.ingest(updates)
    server.broadcast_payload = aggregator.broadcast_payload()


__all__ = ["RefFiLPromptAggregator", "aggregate_with_prompts"]
