"""Federated, non-iid quantity-shift data partitioning.

The paper's FDIL setting (Sec. II) states that client datasets "are
non-independent and identically distributed (non-iid), exhibiting a form of
quantity shift": every client sees the same classes but with very different
amounts of data.  :func:`quantity_shift_partition` draws per-client quantity
shares from a Dirichlet distribution and splits each class's samples
proportionally, so every client keeps every class (the domain-incremental
requirement) while total data volume varies strongly across clients.

Partition invariant
-------------------
Quantity shift skews *how much* data a client holds, never *which classes*
it sees.  Concretely, for every class with at least ``num_clients`` samples,
**every client receives at least one sample of that class** — both in the
proportional allocation (a per-class coverage floor tops up zero counts from
the largest counts) and after ``min_per_client`` rebalancing (stealing
rotates across a donor's classes and never takes a donor's last sample of a
class while any donor still has a spare one).  Rebalancing that cannot reach
``min_per_client`` raises instead of silently returning a starved client.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.datasets.base import ArrayDataset


def _steal_one(
    pools: List[Dict[int, List[int]]],
    receiver: int,
    min_per_client: int,
    cursors: List[int],
    class_totals: Dict[int, int],
) -> None:
    """Move one sample from the best donor into ``receiver``'s pool.

    Donors are visited largest-first (deterministic tie-break on client id)
    and must stay strictly above ``min_per_client`` themselves.  Within a
    donor, the per-donor cursor rotates round-robin across its classes so
    repeated steals spread over the donor's whole label set instead of
    draining one class.  A donor's last sample of a class is protected in
    escalating passes: first only duplicated samples are taken, then last
    samples of *invariant-exempt* classes (fewer than ``num_clients`` samples
    overall, so full coverage was never possible), and only when nothing else
    exists anywhere a last sample of a covered class — donors therefore keep
    the partition invariant whenever it is satisfiable at all.
    """
    num_clients = len(pools)
    sizes = [sum(len(indices) for indices in pool.values()) for pool in pools]
    donors = sorted(
        (
            client
            for client in range(num_clients)
            if client != receiver and sizes[client] > min_per_client
        ),
        key=lambda client: (-sizes[client], client),
    )
    for floor, exempt_only in ((2, False), (1, True), (1, False)):
        for donor in donors:
            classes = sorted(pools[donor])

            def spareable(label: int) -> bool:
                if len(pools[donor][label]) < floor:
                    return False
                return not exempt_only or class_totals[label] < num_clients

            if not any(spareable(label) for label in classes):
                continue
            for _ in range(len(classes)):
                label = classes[cursors[donor] % len(classes)]
                cursors[donor] += 1
                if spareable(label):
                    pools[receiver].setdefault(label, []).append(pools[donor][label].pop())
                    return
    # Loop-termination guard.  With the entry check (total >= n * min) this is
    # unreachable — while any client is below the minimum, pigeonhole gives a
    # donor above it, and the final (floor=1) pass accepts any sample — but a
    # future allocation change must fail loudly here, never under-fill a
    # client silently.
    raise ValueError(
        f"cannot guarantee min_per_client={min_per_client}: no donor can spare "
        "a sample"
    )


def quantity_shift_partition(
    labels: np.ndarray,
    num_clients: int,
    rng: np.random.Generator,
    concentration: float = 1.0,
    min_per_client: int = 2,
) -> List[np.ndarray]:
    """Split sample indices across clients with quantity shift.

    Parameters
    ----------
    labels:
        Integer labels of every sample in the dataset being partitioned.
    num_clients:
        Number of partitions to create.
    rng:
        Random generator controlling both the Dirichlet draw and shuffling.
    concentration:
        Dirichlet concentration; smaller values produce more extreme quantity
        imbalance (the paper contrasts "resource-rich and resource-poor
        participants").
    min_per_client:
        Lower bound on samples per client so no client ends up empty.
        Raises ``ValueError`` when the bound cannot be met.

    Returns
    -------
    A list of ``num_clients`` index arrays covering all samples exactly once.
    Every class with at least ``num_clients`` samples appears in every
    client's partition (see the module docstring's partition invariant).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if len(labels) < num_clients * min_per_client:
        raise ValueError(
            f"cannot give {min_per_client} samples to each of {num_clients} clients "
            f"from only {len(labels)} samples"
        )
    shares = rng.dirichlet(np.full(num_clients, concentration))
    # Avoid degenerate all-zero shares for some client.
    shares = np.maximum(shares, 1e-3)
    shares = shares / shares.sum()

    # Per-client pools keyed by class label, so the rebalancing pass below can
    # steal class-aware instead of popping whatever happens to sit at the tail.
    pools: List[Dict[int, List[int]]] = [{} for _ in range(num_clients)]
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        rng.shuffle(members)
        # Proportional allocation with largest-remainder rounding.
        raw = shares * len(members)
        counts = np.floor(raw).astype(int)
        remainder = len(members) - counts.sum()
        if remainder > 0:
            order = np.argsort(-(raw - counts))
            counts[order[:remainder]] += 1
        # Coverage floor: when the class has enough samples to go around, no
        # client may end up with zero of it (extreme Dirichlet shares round
        # resource-poor clients down to nothing otherwise).  Top up each zero
        # from the current largest count, which by pigeonhole holds >= 2.
        if len(members) >= num_clients:
            starved = np.flatnonzero(counts == 0)
            for client in starved:
                counts[int(np.argmax(counts))] -= 1
                counts[client] += 1
        start = 0
        for client, count in enumerate(counts):
            pools[client][int(label)] = members[start : start + count].tolist()
            start += count

    # Enforce the per-client minimum by stealing from the largest partitions,
    # rotating across each donor's classes (see _steal_one).
    class_totals = {
        int(label): int(count)
        for label, count in zip(*np.unique(labels, return_counts=True))
    }
    cursors = [0] * num_clients
    for client in range(num_clients):
        while sum(len(indices) for indices in pools[client].values()) < min_per_client:
            _steal_one(pools, client, min_per_client, cursors, class_totals)

    return [
        np.asarray(sorted(index for indices in pool.values() for index in indices), dtype=np.int64)
        for pool in pools
    ]


def partition_indices_for_clients(
    labels: np.ndarray,
    client_ids: Sequence[int],
    rng: np.random.Generator,
    concentration: float = 1.0,
) -> Dict[int, np.ndarray]:
    """Partition a domain's sample *indices* across the given clients.

    The index-level half of :func:`partition_domain_across_clients`: it
    performs the exact same RNG draws on the exact same inputs, so the index
    arrays are identical to the ones behind its shards — this is what lets
    the client data plane defer the expensive ``dataset.subset`` (image
    copies) until a client is selected, bit-for-bit.  Labels are cheap (one
    int per sample), so computing every client's indices up front costs
    O(domain), not O(domain x image size).
    """
    if not client_ids:
        return {}
    partitions = quantity_shift_partition(labels, len(client_ids), rng, concentration)
    return {
        client_id: indices for client_id, indices in zip(client_ids, partitions)
    }


def partition_domain_across_clients(
    dataset: ArrayDataset,
    client_ids: Sequence[int],
    rng: np.random.Generator,
    concentration: float = 1.0,
) -> Dict[int, ArrayDataset]:
    """Partition one domain's training data across the given clients.

    Returns a mapping from client id to that client's local shard.
    """
    index_map = partition_indices_for_clients(dataset.labels, client_ids, rng, concentration)
    return {
        client_id: dataset.subset(indices)
        for client_id, indices in index_map.items()
    }


__all__ = [
    "quantity_shift_partition",
    "partition_indices_for_clients",
    "partition_domain_across_clients",
]
