"""The transport: how broadcasts and uploads actually move.

A :class:`LoopbackTransport` sits between the simulation loop and the server
on both directions of every communication round:

* :meth:`~LoopbackTransport.broadcast_round` turns the server's global state
  (plus the method's broadcast payload) into per-client wire frames, records their
  measured sizes in the :class:`~repro.federated.communication.CommunicationLedger`,
  and returns the :class:`~repro.federated.server.BroadcastHandle` the
  clients train from — built over the *decoded* frames, so lossy codecs
  train against exactly what a constrained device would have received;
* :meth:`~LoopbackTransport.collect_updates` encodes every client's
  :class:`~repro.federated.communication.ClientUpdate` into an upload frame,
  applies the bandwidth scenario (per-client budgets) and the fault plane's
  retried hop (:func:`repro.federated.faults.carry_frame`), drops or defers
  the stragglers of either, decodes what arrives, and hands the surviving
  updates to aggregation — decode-before-aggregate.

It is the only transport, and it is in-process: every message is really
encoded through the configured
:class:`~repro.federated.communication.ArrayCodec` and ledger numbers are
actual frame lengths.  Every delivered upload is its decoded frame, under
``identity`` too (whose decode is bit-exact views of the frame's columns).
Downlink, the ``identity`` frame body *is* the broadcast handle's cached
serialization — a model version's one serialization, which the parallel
executor ships to its workers — so that one decode is short-circuited.

Downlink state belongs to the codec that reads it.  Only a reference-reading
downlink codec (``delta``) keeps *acknowledgements*: each client's frame is
encoded against the last broadcast that client received (clients selected in
different past rounds hold different references; unseen clients get a dense
frame), and encoder and decoder share the reference object in-process, so the
diff chain can never desynchronise in simulation.  Every other codec keeps
nothing per client — in memory or in a checkpoint: its one frame per model
version is encoded, CRC-checked and decoded once and memoised on the
:class:`~repro.federated.server.BroadcastHandle`, which the server drops
whenever its state or payload is assigned.

Bandwidth scenario: with ``bandwidth_limit > 0`` every client gets a
deterministic per-run uplink budget — the limit scaled by a multiplier drawn
from ``spawn_rng(seed, "bandwidth", client_id)`` — so some clients are
structurally slow.  An over-budget upload frame is *dropped* when
``drop_stragglers=True`` (it never aggregates; the ledger still charged the
client's download) or *deferred* otherwise (it arrives with the next round's
uploads and aggregates late; deferred frames left over at a task boundary
expire).  If a round would lose every upload, the smallest frame is
delivered anyway — a server that aggregates nothing is not a round.  An
upload whose retries ran out under the fault plane meets the same
drop-or-defer rule, except that its deferral ends within the round: the
intact in-process frame is re-requested behind the round's own uploads and
recorded ``deferred``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.federated.communication import (
    ArrayCodec,
    ClientUpdate,
    CommunicationLedger,
    FrameCorruptionError,
    FrameDecodeError,
    FrameRecord,
    IdentityCodec,
    PayloadCodec,
    RoundCommRecord,
    TransportError,
    TreePayloadCodec,
    WireFrame,
    build_codec,
    decode_frame,
    encode_frame,
    flatten_message,
    split_message,
)
from repro.federated.faults import carry_frame
from repro.federated.server import BroadcastHandle, FederatedServer
from repro.utils.rng import spawn_rng


def verify_frame(frame: WireFrame, **coordinates: Any) -> None:
    """Raise :class:`FrameCorruptionError` (at ``coordinates``) when the frame fails its checksum."""
    if not frame.checksum_ok():
        raise FrameCorruptionError(
            f"{frame.kind} frame failed its CRC32 checksum ({frame.num_bytes} bytes)",
            **coordinates,
        )


@dataclass
class _PendingRound:
    """Everything :meth:`LoopbackTransport.collect_updates` needs from broadcast time."""

    task_id: int
    round_index: int
    selected: Tuple[int, ...]
    broadcast_frames: List[FrameRecord]
    #: The flat (namespaced) arrays the selected clients received this round —
    #: the uplink reference for diff-style codecs and, under a downlink codec
    #: that reads one, the selected clients' next acknowledgement.
    received: Dict[str, np.ndarray]


@dataclass
class _DeferredUpload:
    """An over-budget upload in flight to the next round's aggregation."""

    update: ClientUpdate
    num_bytes: int


class LoopbackTransport:
    """In-process wire transport: encode, measure, decode every message."""

    def __init__(
        self,
        ledger: CommunicationLedger,
        codec: ArrayCodec,
        payload_codec: Optional[PayloadCodec] = None,
        seed: int = 0,
        bandwidth_limit: int = 0,
        drop_stragglers: bool = False,
        retries: int = 2,
        retry_backoff: float = 0.5,
        faults=None,
    ) -> None:
        self.ledger = ledger
        #: Per-client measured frame lengths of the most recent broadcast /
        #: upload cycle.  The temporal plane's cost model reads
        #: these to turn each client's traffic into simulated transfer time:
        #: ``last_broadcast_bytes`` is (re)written by every
        #: :meth:`broadcast_round`, ``last_upload_bytes`` by every
        #: :meth:`collect_updates` (covering the updates handed to that call,
        #: including any the bandwidth scenario then dropped or deferred —
        #: the client paid for the transfer either way).
        self.last_broadcast_bytes: Dict[int, int] = {}
        self.last_upload_bytes: Dict[int, int] = {}
        #: Per-client simulated seconds of retry backoff accumulated in the
        #: most recent :meth:`collect_updates` — zero everywhere unless the
        #: fault plane lost or corrupted attempts.  The temporal plane adds
        #: these to the client's cycle cost.
        self.last_penalty_seconds: Dict[int, float] = {}
        self.codec = codec
        # Sparsifying a full-model broadcast against nothing would destroy
        # it; non-broadcast-safe codecs (topk) ride identity frames downlink
        # and only sparsify the uplink.
        self.down_codec = codec if codec.broadcast_safe else IdentityCodec()
        self.payload_codec = payload_codec if payload_codec is not None else TreePayloadCodec()
        self.seed = seed
        self.bandwidth_limit = bandwidth_limit
        self.drop_stragglers = drop_stragglers
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.retries = retries
        self.retry_backoff = retry_backoff
        #: Optional :class:`~repro.federated.faults.FaultInjector` deciding
        #: which transmission attempts are lost or corrupted; ``None`` (the
        #: default) keeps the upload path free of fault draws entirely.
        self.faults = faults
        self._ack: Dict[int, Dict[str, np.ndarray]] = {}
        self._budgets: Dict[int, int] = {}
        self._pending: Optional[_PendingRound] = None
        self._deferred: List[_DeferredUpload] = []
        self._last_task_id: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Bandwidth scenario
    # ------------------------------------------------------------------ #
    def budget_for(self, client_id: int) -> Optional[int]:
        """The client's deterministic per-round uplink byte budget (None = unlimited)."""
        if self.bandwidth_limit <= 0:
            return None
        if client_id not in self._budgets:
            multiplier = spawn_rng(self.seed, "bandwidth", client_id).uniform(0.6, 1.4)
            self._budgets[client_id] = max(1, int(self.bandwidth_limit * multiplier))
        return self._budgets[client_id]

    # ------------------------------------------------------------------ #
    # Downlink
    # ------------------------------------------------------------------ #
    def _receive(
        self, frame: WireFrame, ref: Optional[Dict[str, np.ndarray]], **coordinates: Any
    ) -> Tuple[BroadcastHandle, Dict[str, np.ndarray]]:
        """What the clients hold after ``frame``: (decoded handle, flat arrays).

        The CRC is checked before anything is decoded, so whatever the caller
        keeps of the result (an acknowledgement, the handle's memo) cannot be
        a corrupted frame and is not re-verified per client.
        """
        verify_frame(frame, **coordinates)
        message, meta = decode_frame(frame, self.down_codec, ref, packed=True, **coordinates)
        state, payload = split_message(message, meta, self.payload_codec)
        return BroadcastHandle(state, payload), message.unpack()

    def broadcast_round(
        self,
        server: FederatedServer,
        selected: Sequence[int],
        task_id: int,
        round_index: int,
    ) -> BroadcastHandle:
        """Deliver the round's broadcast; returns the handle clients train from."""
        if self._pending is not None:
            raise RuntimeError(
                "broadcast_round called with a round still pending; "
                "collect_updates must consume the previous round first"
            )
        if self._last_task_id is not None and task_id != self._last_task_id and self._deferred:
            # Deferred uploads do not survive a task boundary: the domain (and
            # the aggregation they would join) has moved on.
            self.ledger.record_expired_uploads(len(self._deferred))
            self._deferred.clear()
        self._last_task_id = task_id

        handle = server.broadcast_view()
        coordinates = dict(direction="broadcast", task_id=task_id, round_index=round_index)
        if self.down_codec.uses_reference:
            # One frame per distinct acknowledgement held by the selected
            # clients.  A lossless diff codec decodes to identical content
            # whatever the reference, so one decode serves the whole round.
            flat, skeleton = flatten_message(handle.state, handle.payload, self.payload_codec)
            groups: Dict[int, Tuple[Optional[Dict[str, np.ndarray]], List[int]]] = {}
            for cid in selected:
                ref = self._ack.get(cid)
                groups.setdefault(id(ref) if ref is not None else 0, (ref, []))[1].append(cid)
            frames: List[FrameRecord] = []
            decoded_handle = received = None
            for ref, members in groups.values():
                frame = encode_frame("broadcast", self.down_codec, flat, skeleton, ref)
                frames.extend(FrameRecord(cid, frame.num_bytes) for cid in members)
                if decoded_handle is None:
                    decoded_handle, received = self._receive(
                        frame, ref, client_id=members[0], **coordinates
                    )
            for cid in selected:
                self._ack[cid] = received
        else:
            # One frame per model version: every dispatch until the server
            # drops the handle shares its frame, its decode and one
            # ``received`` object.  Keyed by codec, since nothing stops two
            # transports from driving one server.
            if handle.delivery is None or handle.delivery[0] is not self.down_codec:
                flat, skeleton = flatten_message(handle.state, handle.payload, self.payload_codec)
                if isinstance(self.down_codec, IdentityCodec):
                    # The identity frame body IS the handle's cached
                    # serialization — the exact blob the parallel executor
                    # ships to its workers, so ledger and RoundIPC observe the
                    # same bytes — and its decode is bit-exact, so it is
                    # short-circuited to the server's own handle (``None``
                    # below, because a handle memoising itself is a cycle
                    # only a full GC frees).
                    delivered = (len(handle.serialized()), None, flat)
                else:
                    frame = encode_frame("broadcast", self.down_codec, flat, skeleton, None)
                    delivered = (
                        frame.num_bytes,
                        *self._receive(frame, None, client_id=next(iter(selected), None), **coordinates),
                    )
                handle.delivery = (self.down_codec, *delivered)
            _, num_bytes, decoded_handle, received = handle.delivery
            decoded_handle = decoded_handle or handle
            frames = [FrameRecord(cid, num_bytes) for cid in selected]
        frames.sort(key=lambda record: record.client_id)
        self.last_broadcast_bytes = {
            record.client_id: record.num_bytes for record in frames
        }

        self._pending = _PendingRound(
            task_id=task_id,
            round_index=round_index,
            selected=tuple(selected),
            broadcast_frames=frames,
            received=received,
        )
        return decoded_handle

    # ------------------------------------------------------------------ #
    # Uplink
    # ------------------------------------------------------------------ #
    def _encode_update(
        self, update: ClientUpdate, reference: Dict[str, np.ndarray]
    ) -> WireFrame:
        arrays, skeleton = flatten_message(
            update.state_dict, update.payload, self.payload_codec
        )
        meta = {
            "client_id": update.client_id,
            "num_samples": update.num_samples,
            "train_loss": update.train_loss,
            "metrics": update.metrics,
            "skeleton": skeleton,
        }
        return encode_frame("upload", self.codec, arrays, meta, reference)

    def _decode_update(
        self, frame: WireFrame, pending: _PendingRound, client_id: int
    ) -> ClientUpdate:
        message, meta = decode_frame(
            frame,
            self.codec,
            pending.received,
            packed=True,
            client_id=client_id,
            direction="upload",
            task_id=pending.task_id,
            round_index=pending.round_index,
        )
        state, payload = split_message(message, meta["skeleton"], self.payload_codec)
        return ClientUpdate(
            client_id=meta["client_id"],
            state_dict=state,
            num_samples=meta["num_samples"],
            payload=payload,
            train_loss=meta["train_loss"],
            metrics=meta["metrics"],
        )

    def collect_updates(self, updates: List[ClientUpdate]) -> List[ClientUpdate]:
        """Deliver the round's uploads; returns the updates that reach aggregation."""
        if self._pending is None:
            raise RuntimeError("collect_updates called before broadcast_round")
        pending = self._pending
        self._pending = None
        frames: List[FrameRecord] = []

        def received(update: ClientUpdate, frame: WireFrame) -> ClientUpdate:
            # The one delivery rule: what the server holds is the decoded frame.
            return self._decode_update(frame, pending, update.client_id)

        def straggle(update: ClientUpdate, frame: WireFrame) -> None:
            # The one straggler rule, whatever made the upload late — over
            # its bandwidth budget or out of retries: dropped, or held (the
            # in-process copy of the frame is intact) to arrive "deferred".
            if self.drop_stragglers:
                frames.append(FrameRecord(update.client_id, frame.num_bytes, "dropped"))
            else:
                self._deferred.append(_DeferredUpload(received(update, frame), frame.num_bytes))

        delivered: List[ClientUpdate] = []
        over_budget: List[Tuple[ClientUpdate, WireFrame]] = []
        self.last_upload_bytes = {}
        self.last_penalty_seconds = {}
        for update in updates:
            client_id = update.client_id
            frame = self._encode_update(update, pending.received)
            self.last_upload_bytes[client_id] = frame.num_bytes
            budget = self.budget_for(client_id)
            if budget is not None and frame.num_bytes > budget:
                over_budget.append((update, frame))
                continue
            hop = carry_frame(
                self.faults,
                frame,
                "upload",
                (pending.task_id, pending.round_index, client_id),
                self.retries,
                self.retry_backoff,
            )
            frames.extend(FrameRecord(client_id, frame.num_bytes, status) for status in hop.failures)
            if hop.attempts > 1:
                # Every attempt crossed the wire; the client paid for all of
                # them (and for the backoff waits between them).
                self.last_upload_bytes[client_id] = frame.num_bytes * hop.attempts
                self.last_penalty_seconds[client_id] = hop.backoff_seconds
            if hop.arrived:
                frames.append(FrameRecord(client_id, frame.num_bytes))
                delivered.append(received(update, frame))
            else:
                straggle(update, frame)

        # Held uploads arrive behind this round's own: last round's over-budget
        # stragglers, and this round's out-of-retries ones (re-requested once
        # the round's uploads are in).
        for item in self._deferred:
            frames.append(FrameRecord(item.update.client_id, item.num_bytes, "deferred"))
            delivered.append(item.update)
        self._deferred.clear()

        if not delivered and over_budget:
            # Keep-one rule: a round must aggregate something.  Deliver the
            # smallest over-budget frame (deterministic tiebreak by id).
            over_budget.sort(key=lambda pair: (pair[1].num_bytes, pair[0].client_id))
            update, frame = over_budget.pop(0)
            frames.append(FrameRecord(update.client_id, frame.num_bytes))
            delivered.insert(0, received(update, frame))
        for update, frame in over_budget:
            straggle(update, frame)

        frames.sort(key=lambda record: (record.status != "ok", record.client_id))
        self.ledger.record_measured_round(
            RoundCommRecord(
                task_id=pending.task_id,
                round_index=pending.round_index,
                codec=self.codec.name,
                broadcast_frames=tuple(pending.broadcast_frames),
                upload_frames=tuple(frames),
            )
        )
        return delivered

    def finalize(self) -> None:
        """Expire deferred uploads still in flight when the run ends.

        Without this, an upload deferred in the very last round would vanish
        from the accounting entirely — neither delivered, dropped nor
        expired — and delivered + dropped + expired would no longer cover
        every encoded upload.
        """
        if self._deferred:
            self.ledger.record_expired_uploads(len(self._deferred))
            self._deferred.clear()

    def restart(self) -> None:
        """Simulate a server process restart mid-run.

        The protocol soft state dies with the process: delta acknowledgements
        are forgotten (the next broadcast to every client goes dense — the
        recovery cost the bench measures) and deferred uploads still in the
        restarting server's memory expire.  The model, ledger and method are
        the *simulation's* durable state and survive outside the transport.
        """
        if self._pending is not None:
            raise RuntimeError("cannot restart the server with a round in flight")
        self._ack.clear()
        if self._deferred:
            self.ledger.record_expired_uploads(len(self._deferred))
            self._deferred.clear()

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the transport's session state for a checkpoint."""
        if self._pending is not None:
            raise RuntimeError("cannot snapshot a transport with a round in flight")
        return {
            "last_broadcast_bytes": dict(self.last_broadcast_bytes),
            "last_upload_bytes": dict(self.last_upload_bytes),
            "last_penalty_seconds": dict(self.last_penalty_seconds),
            "ack": self._ack,
            "budgets": dict(self._budgets),
            "deferred": list(self._deferred),
            "last_task_id": self._last_task_id,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.last_broadcast_bytes = dict(state["last_broadcast_bytes"])
        self.last_upload_bytes = dict(state["last_upload_bytes"])
        self.last_penalty_seconds = dict(state["last_penalty_seconds"])
        self._ack = dict(state["ack"])
        self._budgets = dict(state["budgets"])
        self._deferred = list(state["deferred"])
        self._last_task_id = state["last_task_id"]
        self._pending = None


def build_transport(
    transport: str,
    codec: str,
    ledger: CommunicationLedger,
    payload_codec: Optional[PayloadCodec] = None,
    seed: int = 0,
    bandwidth_limit: int = 0,
    drop_stragglers: bool = False,
    retries: int = 2,
    retry_backoff: float = 0.5,
    faults=None,
) -> LoopbackTransport:
    """Construct the named transport from the :class:`FederatedConfig` knobs."""
    if transport != "loopback":
        raise ValueError(f"unknown transport {transport!r}; the only transport is 'loopback'")
    return LoopbackTransport(
        ledger=ledger,
        codec=build_codec(codec),
        payload_codec=payload_codec,
        seed=seed,
        bandwidth_limit=bandwidth_limit,
        drop_stragglers=drop_stragglers,
        retries=retries,
        retry_backoff=retry_backoff,
        faults=faults,
    )


__all__ = [
    "LoopbackTransport",
    "TransportError",
    "FrameCorruptionError",
    "FrameDecodeError",
    "verify_frame",
    "build_transport",
]
