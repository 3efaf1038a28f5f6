"""Per-round random client selection (paper Algorithm 1, line 5).

Two samplers share this module.  :func:`sample_clients` is the historical
list-based path: it materializes the candidate set, filters availability, and
draws with ``rng.choice(..., replace=False)`` — byte-identical to every run
recorded before the virtual-client plane existed.  :func:`sample_clients_lazy`
is the fleet-scale path: it draws a uniform ``count``-subset of
``range(population)`` in O(count) work and memory by rejection (duplicate and
offline candidates are re-drawn), never building a population-sized list or
permutation.  The two are *different* uniform samplers — numpy's
``Generator.choice(replace=False)`` permutes internally, so reproducing its
draws in O(count) is impossible; the lazy sampler instead has its own
reference implementation asserted draw-for-draw in the tests.
"""

from __future__ import annotations

from typing import Callable, Container, List, Optional, Sequence

import numpy as np


class NoAvailableClientsError(RuntimeError):
    """Every active client was filtered out as offline.

    Raised instead of silently selecting offline clients so the temporal
    plane's churn/availability scenarios surface the condition explicitly;
    callers that can model "the server waits" (the simulation loop does)
    catch this and advance the simulated clock instead.
    """


def sample_clients(
    active_clients: Sequence[int],
    count: int,
    rng: np.random.Generator,
    available: Optional[Callable[[int], bool]] = None,
) -> List[int]:
    """Uniformly sample ``count`` distinct clients from the active set.

    When fewer clients are active than requested, all active clients are
    selected (the paper's smaller OfficeCaltech10 setup hits this case in the
    first tasks).

    ``available`` is the temporal plane's availability hook: a predicate
    applied to the active set *before* sampling (device offline this round,
    churned out for the task).  ``None`` — the default, and the only case the
    synchronous instantaneous-device path ever uses — is byte-identical to
    having no hook at all: the same clients reach the same ``rng`` draws.
    Raises :class:`NoAvailableClientsError` when the filter empties a
    non-empty active set, so churn can never silently select offline clients.
    """
    active = list(active_clients)
    if count <= 0:
        raise ValueError("selection count must be positive")
    if not active:
        raise ValueError("cannot sample from an empty active client set")
    if available is not None:
        online = [client_id for client_id in active if available(client_id)]
        if not online:
            raise NoAvailableClientsError(
                f"all {len(active)} active clients are offline after availability "
                "filtering; no client can be selected this round (the caller "
                "should advance the simulated clock and retry, not select an "
                "offline client)"
            )
        active = online
    if count >= len(active):
        return sorted(active)
    chosen = rng.choice(len(active), size=count, replace=False)
    return sorted(active[i] for i in chosen)


def sample_clients_lazy(
    population: int,
    count: int,
    rng: np.random.Generator,
    available: Optional[Callable[[int], bool]] = None,
    exclude: Optional[Container[int]] = None,
) -> List[int]:
    """Uniformly sample ``count`` distinct ids from ``range(population)``.

    O(count) expected work and memory: candidate ids are drawn one at a time
    with ``rng.integers(population)`` and rejected if already selected, in
    ``exclude`` (e.g. in-flight or rebooting clients), or offline per
    ``available``.  Only the selected set is ever held — a 100k-client
    population costs the same as a 100-client one.  Deterministic for a given
    ``rng`` state: the probe sequence is a pure function of the generator.

    When ``count`` reaches the population size the whole eligible range is
    returned (after filtering), mirroring :func:`sample_clients`'s
    everyone-selected case.  The rejection loop is bounded at
    ``max(1024, 64 * count)`` probes; exhausting it raises
    :class:`NoAvailableClientsError` — the caller should advance the
    simulated clock, exactly as for the eager sampler's empty-filter case.
    """
    if count <= 0:
        raise ValueError("selection count must be positive")
    if population <= 0:
        raise ValueError("cannot sample from an empty population")

    def _eligible(client_id: int) -> bool:
        if exclude is not None and client_id in exclude:
            return False
        return available is None or available(client_id)

    if count >= population:
        online = [client_id for client_id in range(population) if _eligible(client_id)]
        if not online:
            raise NoAvailableClientsError(
                f"all {population} clients are excluded or offline; no client "
                "can be selected (the caller should advance the simulated "
                "clock and retry)"
            )
        return online

    max_probes = max(1024, 64 * count)
    selected: set = set()
    for _ in range(max_probes):
        candidate = int(rng.integers(population))
        if candidate in selected or not _eligible(candidate):
            continue
        selected.add(candidate)
        if len(selected) == count:
            return sorted(selected)
    raise NoAvailableClientsError(
        f"could not find {count} eligible clients in {max_probes} probes of a "
        f"population of {population} ({len(selected)} found); the population "
        "is effectively offline — advance the simulated clock and retry"
    )


__all__ = ["NoAvailableClientsError", "sample_clients", "sample_clients_lazy"]
