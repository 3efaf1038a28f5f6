"""Central server: the sole owner of the global model state and its broadcast."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.federated.aggregation import FlatReduceBackend, ReduceBackend
from repro.federated.communication import (
    ClientUpdate,
    CommunicationLedger,
    encode_version,
    readonly_payload_view,
)
from repro.nn.module import Module
from repro.nn.serialization import readonly_state_view


class BroadcastHandle:
    """One model version's broadcast, shared by every client without copies.

    ``state`` is a write-protected, no-copy view of the canonical global state
    (see :func:`repro.nn.serialization.readonly_state_view`); handing the same
    handle to all ``M`` clients of a round therefore costs zero array copies.
    :meth:`serialized` encodes the version's one serialization
    (:func:`repro.federated.communication.encode_version`) at most once per
    handle: the identity downlink's measured length, what parallel executors
    ship to their workers and what a checkpoint stores.  ``delivery`` is the
    transport's memo of this handle's reference-free downlink frame —
    ``(codec, frame bytes, decoded handle or None for this one, received
    arrays)`` — so a model version dispatched many times (buffered / async
    modes) is encoded once.

    A handle is also the evaluator's version token
    (:class:`repro.continual.evaluator.GlobalEvaluator`), which refers to it
    weakly so a retired version is freed as soon as the server drops it.
    """

    __slots__ = ("state", "payload", "_blob", "delivery", "__weakref__")

    def __init__(self, state: Dict[str, np.ndarray], payload: Dict[str, Any]) -> None:
        self.state = readonly_state_view(state)
        self.payload = readonly_payload_view(payload)
        self._blob: Optional[bytes] = None
        self.delivery: Optional[tuple] = None

    def serialized(self) -> bytes:
        """The version's ``identity`` broadcast frame body, encoded lazily exactly once."""
        if self._blob is None:
            self._blob = encode_version(self.state, self.payload)
        return self._blob


class FederatedServer:
    """The global coordinator ``M_G`` of paper Algorithm 1.

    The server owns the canonical global model state and the method's
    broadcast payload (e.g. RefFiL's clustered global prompts), broadcasts
    both to selected clients, aggregates their updates with FedAvg and tracks
    communication volume.  ``model`` is read once, for the initial state; the
    server keeps no reference to it.

    Both pieces of state change only by assignment (:meth:`aggregate`
    assigns too).  Each setter stores write-protected views and drops the
    cached :class:`BroadcastHandle`, so the broadcast is a pure function of
    the current state — no caller decides when it is stale — and an in-place
    array write raises ``ValueError`` instead of silently diverging from a
    memoised frame or serialization.  Item assignment on the mappings
    themselves bypasses the setters and is outside the contract (rule 4 of
    :mod:`repro.federated.method`).
    """

    def __init__(self, model: Module, reduce_backend: Optional[ReduceBackend] = None) -> None:
        self._broadcast_handle: Optional[BroadcastHandle] = None
        self.global_state = model.state_dict()
        self.broadcast_payload = {}
        self.ledger = CommunicationLedger()
        #: Aggregation topology (:mod:`repro.federated.aggregation`): the
        #: default flat backend is one server-side FedAvg, bit-for-bit the
        #: historical path; a tree backend reduces through edge aggregators
        #: whose partials ride measured wire frames.
        self.reduce_backend: ReduceBackend = (
            reduce_backend if reduce_backend is not None else FlatReduceBackend()
        )
        self.round_counter = 0
        self._aggregation_scale: Optional[Sequence[float]] = None

    @property
    def global_state(self) -> Dict[str, np.ndarray]:
        """The canonical global model state, as write-protected arrays."""
        return self._global_state

    @global_state.setter
    def global_state(self, state: Dict[str, np.ndarray]) -> None:
        self._global_state = readonly_state_view(state)
        self._broadcast_handle = None

    @property
    def broadcast_payload(self) -> Dict[str, Any]:
        """Method-specific broadcast content, every array write-protected."""
        return self._broadcast_payload

    @broadcast_payload.setter
    def broadcast_payload(self, payload: Dict[str, Any]) -> None:
        self._broadcast_payload = readonly_payload_view(payload)
        self._broadcast_handle = None

    def broadcast_view(self) -> BroadcastHandle:
        """Return the current model version's shared zero-copy broadcast handle.

        The handle is cached until ``global_state`` or ``broadcast_payload``
        is next assigned, so repeated calls between two model versions are
        free and its cached serialization (and the transport's memoised
        frame) is reused across every worker and dispatch that sees it.
        """
        if self._broadcast_handle is None:
            self._broadcast_handle = BroadcastHandle(self.global_state, self.broadcast_payload)
        return self._broadcast_handle

    def aggregate(self, updates: List[ClientUpdate]) -> Dict[str, np.ndarray]:
        """FedAvg the updates into a new global state (weighted by |D_m|).

        When an :meth:`aggregation_scale` scope is active, each update's
        sample weight is additionally multiplied by its scale factor — the
        temporal plane's staleness-aware buffered flush.  Outside such a
        scope this is plain FedAvg, bit-for-bit.
        """
        if not updates:
            raise ValueError("cannot aggregate zero client updates")
        scale = self._aggregation_scale
        if scale is not None and len(scale) != len(updates):
            raise ValueError(
                f"aggregation_scale has {len(scale)} factors but {len(updates)} "
                "updates arrived; the scope must cover exactly the updates it "
                "was declared for"
            )
        self.global_state = self.reduce_backend.reduce(
            [update.state_dict for update in updates],
            [update.num_samples for update in updates],
            scale=scale,
            coordinate=self.round_counter,
        )
        self._aggregation_scale = None  # a scope covers exactly one aggregation
        self.round_counter += 1
        return self.global_state

    @contextmanager
    def aggregation_scale(self, scale: Sequence[float]) -> Iterator[None]:
        """Scope a per-update weight multiplier over the next :meth:`aggregate`.

        The temporal plane staleness-weights a buffered flush *through* the
        method's own ``aggregate`` hook (which may do arbitrary payload work
        around ``server.aggregate``), so the scale travels on the server
        instead of every method signature: the first ``aggregate`` inside the
        scope consumes it, and it never leaks past the ``with`` block.
        """
        self._aggregation_scale = list(scale)
        try:
            yield
        finally:
            self._aggregation_scale = None


__all__ = ["FederatedServer", "BroadcastHandle"]
