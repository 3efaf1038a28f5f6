"""Client-side abstractions: the per-round client handle and the shared local SGD loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.datasets.base import ArrayDataset, DataLoader
from repro.federated.increment import ClientGroup
from repro.nn.module import Module
from repro.nn.optim import SGD


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Hyper-parameters of a client's local update (paper: E epochs of SGD).

    Momentum and the global gradient clip are :class:`~repro.nn.optim.SGD`'s
    own constants, the same for every method and client.
    """

    local_epochs: int = 1
    batch_size: int = 16
    learning_rate: float = 0.03

    def __post_init__(self) -> None:
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


@dataclass
class ClientHandle:
    """Everything a method needs to run one client's local update for one round.

    The simulation constructs a fresh handle per (client, task); the ``group``
    field tells prompt-based methods whether the client is Old, In-between or
    New, which changes the DPCL positive/negative sampling (paper Sec. IV).
    """

    client_id: int
    task_id: int
    group: ClientGroup
    dataset: ArrayDataset
    rng: np.random.Generator
    training: LocalTrainingConfig
    domains_held: Tuple[int, ...] = ()
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def loader(self, shuffle: bool = True) -> DataLoader:
        return DataLoader(
            self.dataset,
            batch_size=self.training.batch_size,
            shuffle=shuffle,
            rng=self.rng,
        )


LossFn = Callable[[Module, Tensor, np.ndarray, int], Tensor]


def run_local_sgd(
    model: Module,
    client: ClientHandle,
    loss_fn: LossFn,
    parameters=None,
) -> float:
    """Run ``local_epochs`` of SGD on the client's data and return the mean loss.

    ``loss_fn(model, images, labels, epoch)`` computes the method's total loss
    for a mini-batch of epoch ``epoch`` (from 0); this is the hook through
    which Finetune (plain CE), FedLwF (CE + KD), FedEWC (CE + Fisher penalty),
    the prompt baselines and RefFiL (which collects its Local Prompt Group in
    the final epoch) all reuse the same loop.
    """
    trainable = parameters if parameters is not None else model.parameters()
    trainable = [p for p in trainable if p.requires_grad]
    optimizer = SGD(trainable, client.training.learning_rate)
    model.train()
    total_loss = 0.0
    total_batches = 0
    for epoch in range(client.training.local_epochs):
        for images, labels in client.loader():
            optimizer.zero_grad()
            loss = loss_fn(model, images, labels, epoch)
            loss.backward()
            optimizer.step()
            total_loss += float(loss.data)
            total_batches += 1
    return total_loss / max(total_batches, 1)


__all__ = [
    "LocalTrainingConfig",
    "ClientHandle",
    "run_local_sgd",
]
