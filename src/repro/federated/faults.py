"""Deterministic fault injection: the fault plane's schedule and trace.

Fleet-scale federations fail constantly — clients crash mid-update, uploads
are lost or corrupted on the wire, servers restart — and a simulation that
cannot reproduce a failure cannot debug the recovery either.
This module makes every failure *replayable*: a :class:`FaultSpec` declares
the rates, and a :class:`FaultInjector` draws every fault decision from
``spawn_rng(seed, "fault", <kind>, *context)`` — a pure function of the run
seed and the query's coordinates, never of call order or wall time.  Two runs
with the same ``(seed, FaultSpec)`` see the exact same failure trace, which
is what the recovery tests (transport retries, checkpoint/resume) assert
their bit-for-bit guarantees against.

The injector is *consulted*, never *driven*: the planes ask "does client 3
crash in task 1 round 2?" at the moment that decision matters, so a disabled
spec (all rates zero) means the injector is never even constructed and the
zero-fault path performs zero extra RNG draws — the bit-for-bit inertness
guarantee of the whole fault plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.federated.communication import WireFrame
from repro.utils.rng import spawn_rng

#: Fraction of a crashed client's training time spent before the crash (its
#: simulated-clock cost; the download was already paid in full).
CRASH_FRACTION = 0.5


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault schedule of one run; all rates default to zero.

    Attributes
    ----------
    client_crash_rate:
        Per-(client, round) probability that a selected client crashes
        mid-update: it receives the broadcast and burns ``CRASH_FRACTION`` of
        its training time, but never uploads.
    upload_loss_rate:
        Per-attempt probability that an upload frame is lost on the wire
        (the transport retries up to its attempt bound).
    upload_corruption_rate:
        Per-attempt probability that an upload frame arrives with flipped
        bytes; the checksum rejects it and the transport retries.
    server_restart_every:
        Simulate a server process restart every N aggregations (0 = never):
        protocol soft state (delta acknowledgements, deferred uploads) is
        wiped, as it would be by a real restart; durable state survives only
        through checkpoints.
    """

    client_crash_rate: float = 0.0
    upload_loss_rate: float = 0.0
    upload_corruption_rate: float = 0.0
    server_restart_every: int = 0

    def __post_init__(self) -> None:
        for name in ("client_crash_rate", "upload_loss_rate", "upload_corruption_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.server_restart_every < 0:
            raise ValueError("server_restart_every must be non-negative (0 disables restarts)")

    @property
    def frame_faults(self) -> bool:
        """True when an upload or edge frame can be lost or corrupted."""
        return self.upload_loss_rate > 0.0 or self.upload_corruption_rate > 0.0

    @property
    def enabled(self) -> bool:
        """True when any fault can ever fire under this spec."""
        return self.client_crash_rate > 0.0 or self.frame_faults or self.server_restart_every > 0


class FaultInjector:
    """Draws every fault decision of a run; a pure function of (seed, spec).

    Each predicate derives a fresh generator from the query's coordinates —
    ``spawn_rng(seed, "fault", kind, *context)`` — so the answer for any
    (kind, context) pair never depends on which other queries were made, in
    what order, or how many times.  Fired faults are appended to
    :attr:`trace` for the bench's recovery accounting and the purity tests.
    """

    def __init__(self, seed: int, spec: FaultSpec) -> None:
        self.seed = seed
        self.spec = spec
        #: Chronological record of every fault that actually fired:
        #: ``{"kind": ..., **coordinates}`` dicts (no wall time — the trace
        #: must be comparable across runs).
        self.trace: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {
            "client_crashes": 0,
            "frames_lost": 0,
            "frames_corrupted": 0,
            "server_restarts": 0,
        }

    # ------------------------------------------------------------------ #
    # Predicates (one deterministic draw each)
    # ------------------------------------------------------------------ #
    def _fires(self, rate: float, draw: str, kind: str, counter: str, **coordinates: Any) -> bool:
        """One draw at ``coordinates``; a fired fault is traced and counted.

        A zero rate draws nothing — the inertness guarantee of the plane.
        """
        if rate <= 0.0:
            return False
        if spawn_rng(self.seed, "fault", draw, *coordinates.values()).random() >= rate:
            return False
        self._record(kind, **coordinates)
        self.counters[counter] += 1
        return True

    def client_crashes(self, task_id: int, round_index: Any, client_id: int) -> bool:
        """Does this client crash mid-update at this selection point?"""
        return self._fires(
            self.spec.client_crash_rate,
            "crash",
            "client_crash",
            "client_crashes",
            task_id=task_id,
            round_index=round_index,
            client_id=client_id,
        )

    def corrupt_frame(
        self, frame: WireFrame, task_id: int, round_index: Any, client_id: int, attempt: int
    ) -> WireFrame:
        """Deterministically flip one byte of the frame body (never a no-op XOR)."""
        rng = spawn_rng(self.seed, "fault", "flip", task_id, round_index, client_id, attempt)
        body = bytearray(frame.body)
        if body:
            position = int(rng.integers(len(body)))
            body[position] ^= int(rng.integers(1, 256))
        return WireFrame(kind=frame.kind, codec=frame.codec, body=bytes(body), checksum=frame.checksum)

    def server_restarts(self, round_counter: int) -> bool:
        """Does the server restart after this aggregation?  (No RNG: periodic.)"""
        every = self.spec.server_restart_every
        if every <= 0 or round_counter <= 0 or round_counter % every != 0:
            return False
        self._record("server_restart", round_counter=round_counter)
        self.counters["server_restarts"] += 1
        return True

    # ------------------------------------------------------------------ #
    # Trace / checkpoint state
    # ------------------------------------------------------------------ #
    def _record(self, kind: str, **coordinates: Any) -> None:
        self.trace.append({"kind": kind, **coordinates})

    def state_dict(self) -> Dict[str, Any]:
        """Fired-fault bookkeeping for checkpoints (the predicates are stateless)."""
        return {"trace": list(self.trace), "counters": dict(self.counters)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.trace[:] = [dict(entry) for entry in state["trace"]]
        self.counters.update(state["counters"])

    def summary(self) -> Dict[str, int]:
        """The recovery counters (the bench's ``fault_plane`` section rows)."""
        return dict(self.counters)


class Hop(NamedTuple):
    """Outcome of carrying one frame over one faulty hop."""

    arrived: bool
    attempts: int
    #: Simulated seconds the sender waited *between* its attempts.
    backoff_seconds: float
    #: ``"lost"`` / ``"corrupt"``, one per failed attempt, in order.
    failures: Tuple[str, ...]


#: channel -> (loss draw, corruption draw, trace-kind stem, coordinate names)
_CHANNELS = {
    "upload": ("lose", "corrupt", "frame", ("task_id", "round_index", "client_id")),
    "edge": ("edge-lose", "edge-corrupt", "edge_frame", ("coordinate", "level", "node")),
}


def carry_frame(
    injector: Optional[FaultInjector],
    frame: WireFrame,
    channel: str,
    coordinates: Tuple[Any, Any, Any],
    retries: int,
    retry_backoff: float,
) -> Hop:
    """Carry one encoded frame over a faulty hop: the wire path's one retry rule.

    ``channel`` names the hop and what its coordinates mean: ``"upload"`` at
    ``(task_id, round_index, client_id)``, or ``"edge"`` — a tree reduce's
    edge→parent transfer — at ``(coordinate, level, node)``, ``coordinate``
    being the server's round counter.  Both fail at the spec's per-attempt
    ``upload_loss_rate`` / ``upload_corruption_rate`` (an edge transfer is an
    upload hop) but draw from their own coordinates, so edge faults never
    perturb the client upload trace.  An attempt is lost outright, or arrives
    with a flipped byte that the CRC rejects, or arrives; *between* failed
    attempts the sender backs off ``retry_backoff * 2**(attempt-1)`` simulated
    seconds, and at most ``retries + 1`` attempts are made.  Without an
    injector, or with both frame-fault rates zero, this is one clean attempt
    with zero draws.  Encoding and decoding stay with the caller.
    """
    if injector is None or not injector.spec.frame_faults:
        return Hop(True, 1, 0.0, ())
    spec = injector.spec
    lose, corrupt, stem, names = _CHANNELS[channel]
    # An edge frame's byte flip draws at ("edge", level), which no upload's
    # (task_id, round_index, client_id) can equal.
    flip_at = coordinates
    if channel == "edge":
        flip_at = (coordinates[0], ("edge", coordinates[1]), coordinates[2])
    failures: List[str] = []
    backoff = 0.0
    for attempt in range(1, retries + 2):
        at = dict(zip(names, coordinates), attempt=attempt)
        if injector._fires(spec.upload_loss_rate, lose, f"{stem}_lost", "frames_lost", **at):
            failures.append("lost")
        else:
            received = frame
            if injector._fires(
                spec.upload_corruption_rate, corrupt, f"{stem}_corrupt", "frames_corrupted", **at
            ):
                received = injector.corrupt_frame(frame, *flip_at, attempt)
            if received.checksum_ok():
                return Hop(True, attempt, backoff, tuple(failures))
            failures.append("corrupt")
        if attempt <= retries:
            backoff += retry_backoff * 2.0 ** (attempt - 1)
    return Hop(False, retries + 1, backoff, tuple(failures))


__all__ = ["CRASH_FRACTION", "FaultSpec", "FaultInjector", "Hop", "carry_frame"]
