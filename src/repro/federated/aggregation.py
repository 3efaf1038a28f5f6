"""FedAvg aggregation (McMahan et al., 2017), operating on flat state dicts.

Paper Algorithm 1, line 8: the server forms the next global model as the
data-size-weighted average of the selected participants' local models,
``theta^{r+1} = sum_m (|D_m| / |D|) theta^r_m``.

Aggregation *topology* is pluggable through :class:`ReduceBackend`:
:class:`FlatReduceBackend` is the star — one server-side :func:`fedavg`,
bit-for-bit the historical path — while :class:`TreeReduceBackend` reduces
through a fan-out tree of edge aggregators, each shipping its weighted
partial sum up to its parent as a codec'd wire frame (CRC-checked, retried
under the fault plane, every attempt's bytes measured in the communication
ledger).  The tree is exact under FedAvg weights up to float rounding: the
flat path normalizes weights to sum one *before* accumulating, the tree sums
``w_i * x_i`` partials and divides by the total weight once at the root —
algebraically identical, so the two agree to accumulation-dtype tolerance
(observed ~1e-6 relative at float32, ~1e-12 at float64), not bit-for-bit.
The protocol is deliberately transport-shaped (partials travel as frames, a
reduce is a pure function of its inputs) so a process- or MPI-backed
implementation can slot in behind the same interface later.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.federated.communication import (
    ArrayCodec,
    CommunicationLedger,
    FrameRecord,
    PackedMessage,
    Table,
    _row,
    build_codec,
    decode_frame,
    encode_frame,
)
from repro.federated.faults import carry_frame


def staleness_weight(staleness: float, decay: float) -> float:
    """Polynomial staleness discount of FedAsync (Xie et al., 2019).

    ``(1 + staleness) ** (-decay)``: exactly ``1.0`` at staleness 0 and
    monotone non-increasing in staleness for any ``decay >= 0`` (``decay=0``
    disables the discount entirely).  ``staleness`` counts how many times the
    global model advanced between a client's dispatch and its arrival.
    """
    if staleness < 0:
        raise ValueError(f"staleness must be non-negative, got {staleness!r}")
    if decay < 0:
        raise ValueError(f"staleness decay must be non-negative, got {decay!r}")
    return float((1.0 + float(staleness)) ** (-float(decay)))


def weighted_average_arrays(arrays: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Weighted average of equally-shaped arrays with weights normalised to sum to one.

    The accumulation dtype follows the inputs: float inputs average in their
    own precision (so a float32 pipeline stays float32 through FedAvg instead
    of being silently upcast), anything else falls back to float64.
    """
    if len(arrays) == 0:
        raise ValueError("cannot average zero arrays")
    if len(arrays) != len(weights):
        raise ValueError("arrays and weights must have equal length")
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("aggregation weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("aggregation weights must not all be zero")
    weights = weights / total
    first = np.asarray(arrays[0])
    accum_dtype = first.dtype if first.dtype.kind == "f" else np.dtype(np.float64)
    result = np.zeros(first.shape, dtype=accum_dtype)
    for array, weight in zip(arrays, weights):
        array = np.asarray(array)
        if array.shape != result.shape:
            raise ValueError(f"shape mismatch in aggregation: {array.shape} vs {result.shape}")
        result += accum_dtype.type(weight) * array
    return result


def blend_states(
    base: Dict[str, np.ndarray],
    update: Dict[str, np.ndarray],
    mixing: float,
) -> Dict[str, np.ndarray]:
    """FedAsync's per-arrival blend over flat state dicts: ``(1-m) base + m update``.

    ``mixing`` must be in ``(0, 1]`` — typically a base rate discounted by
    :func:`staleness_weight`.  The blend runs through
    :func:`weighted_average_arrays`, so a float32 pipeline stays float32 (no
    silent upcast through the python-float coefficients).  The blend behind
    :meth:`FederatedMethod.apply_async_update`.
    """
    if not 0.0 < mixing <= 1.0:
        raise ValueError(f"mixing rate must be in (0, 1], got {mixing!r}")
    if set(update) != set(base):
        raise ValueError("blended update has mismatching parameter names")
    return {
        key: weighted_average_arrays([base[key], update[key]], [1.0 - mixing, mixing])
        for key in base
    }


def fedavg(
    state_dicts: Sequence[Dict[str, np.ndarray]],
    num_samples: Sequence[int],
    scale: Optional[Sequence[float]] = None,
) -> Dict[str, np.ndarray]:
    """Data-size-weighted FedAvg over client state dicts.

    Every state dict must contain exactly the same keys (they all originate
    from broadcasting the same global model).  ``scale`` optionally multiplies
    each client's sample weight by a non-negative factor — the temporal
    plane's staleness-aware aggregation passes ``staleness_weight(...)`` per
    update here, so a stale upload counts for less than a fresh one of the
    same size.  ``scale=None`` (the default) is plain FedAvg, bit-for-bit.
    """
    weights = _leaf_weights(state_dicts, num_samples, scale)
    return {
        key: weighted_average_arrays([state[key] for state in state_dicts], weights)
        for key in state_dicts[0]
    }


def _leaf_weights(
    state_dicts: Sequence[Dict[str, np.ndarray]],
    num_samples: Sequence[int],
    scale: Optional[Sequence[float]],
) -> List[float]:
    """FedAvg's effective per-update weights, validations included.

    ``max(n, 0)`` sample counts, optional non-negative scale factors, uniform
    fallback when everything weighs zero (all clients report zero samples) —
    shared by :func:`fedavg` and the tree reduce, so both target the same
    average.
    """
    if len(state_dicts) == 0:
        raise ValueError("fedavg requires at least one client update")
    if len(state_dicts) != len(num_samples):
        raise ValueError("state_dicts and num_samples must have equal length")
    reference_keys = set(state_dicts[0])
    for index, state in enumerate(state_dicts[1:], start=1):
        if set(state) != reference_keys:
            raise ValueError(f"client update {index} has mismatching parameter names")
    weights = [float(max(n, 0)) for n in num_samples]
    if scale is not None:
        if len(scale) != len(state_dicts):
            raise ValueError("scale and state_dicts must have equal length")
        if any(factor < 0 for factor in scale):
            raise ValueError("scale factors must be non-negative")
        weights = [weight * float(factor) for weight, factor in zip(weights, scale)]
    if sum(weights) <= 0:
        weights = [1.0] * len(state_dicts)
    return weights


class ReduceBackend:
    """How a cohort of weighted state dicts becomes the next global state."""

    name = "abstract"

    def reduce(
        self,
        state_dicts: Sequence[Dict[str, np.ndarray]],
        num_samples: Sequence[int],
        scale: Optional[Sequence[float]] = None,
        coordinate: Any = 0,
    ) -> Dict[str, np.ndarray]:
        """Aggregate under FedAvg weights.  ``coordinate`` is a deterministic
        label of this reduce (the server passes its round counter) used only
        to key the fault plane's per-hop draws — it survives checkpoint
        resume, so a resumed run replays the same edge faults."""
        raise NotImplementedError

    def collect_penalty(self) -> float:
        """Simulated seconds of retry backoff accrued since the last call."""
        return 0.0


class FlatReduceBackend(ReduceBackend):
    """The historical star: one server-side :func:`fedavg`, bit-for-bit."""

    name = "flat"

    def reduce(
        self,
        state_dicts: Sequence[Dict[str, np.ndarray]],
        num_samples: Sequence[int],
        scale: Optional[Sequence[float]] = None,
        coordinate: Any = 0,
    ) -> Dict[str, np.ndarray]:
        return fedavg(state_dicts, num_samples, scale)


_SHAPE, _DTYPE = operator.attrgetter("shape"), operator.attrgetter("dtype")


class _Leaves:
    """A cohort's updates in the tree's accumulation layout.

    The edge table lists every key of the first update in order, as
    ``(key, accumulation dtype, shape)`` — FedAvg's accumulation dtype: a
    float key's own, float64 for anything else — and a packed update holds one
    column per accumulation dtype.  Construction checks every update's shapes
    and dtypes against the first's, raising the flat path's ``ValueError``;
    :meth:`weighted` packs one update and scales it in place, which the tree
    does only when the update's group consumes it.
    """

    def __init__(self, state_dicts: Sequence[Dict[str, np.ndarray]]) -> None:
        keys = list(state_dicts[0])
        self.arrays = [
            list(map(np.asarray, map(state.__getitem__, keys))) for state in state_dicts
        ]
        first = self.arrays[0]
        shapes, dtypes = list(map(_SHAPE, first)), list(map(_DTYPE, first))
        for arrays in self.arrays[1:]:
            if list(map(_SHAPE, arrays)) == shapes and list(map(_DTYPE, arrays)) == dtypes:
                continue
            for key, value, shape, dtype in zip(keys, arrays, shapes, dtypes):
                if value.shape != shape:
                    raise ValueError(
                        f"shape mismatch in aggregation: {value.shape} vs {shape} ({key!r})"
                    )
                if value.dtype != dtype:
                    raise ValueError(
                        f"dtype mismatch in aggregation: {value.dtype} vs {dtype} ({key!r})"
                    )
        # Rows come from ``_pack``'s row builder and a column is keyed by its
        # dtype's first row string, as ``_pack`` keys it.
        self.table: Table = []
        #: Per accumulation dtype, the positions of its keys.
        self.rows: Dict[str, List[int]] = {}
        for position, (key, value) in enumerate(zip(keys, first)):
            accum = np.dtype(value.dtype.type if value.dtype.kind == "f" else np.float64)
            self.table.append(_row(key, accum, value.shape))
            self.rows.setdefault(self.table[-1][1], []).append(position)

    def weighted(self, index: int, weight: float) -> Dict[str, np.ndarray]:
        """Update ``index`` packed into fresh columns, each multiplied by ``weight``."""
        arrays = self.arrays[index]
        columns = {}
        for dtype, rows in self.rows.items():
            column = np.concatenate([arrays[row] for row in rows], axis=None, dtype=dtype)
            column *= column.dtype.type(weight)
            columns[dtype] = column
        return columns


class TreeReduceBackend(ReduceBackend):
    """Hierarchical FedAvg: edge aggregators combine ``fanout`` children each.

    Leaves are the cohort's updates.  Each edge node computes the weighted
    partial sum ``(sum_i w_i * x_i, sum_i w_i)`` of its children in FedAvg's
    accumulation dtype and ships it to its parent as one ``edge`` wire frame
    through the configured codec (delta encodes dense without a reference;
    lossy codecs make the partials lossy, exactly as they do uploads).  The
    final single group is combined by the root in process — the root *is* the
    server, there is no wire above it — so a cohort no larger than the fan-out
    produces zero edge frames and degenerates to the flat star numerically.

    The reduce is streamed and works per column: every partial is a packed
    message (one flat column per accumulation dtype), a leaf is packed and
    weighted in place only when its group consumes it, children are summed
    column by column, left to right, and the root divides each column once
    and hands out views.  Live memory is O(cohort / fan-out) leaf-sizes — the
    finished partials of one level plus one group's accumulator and leaf —
    rather than O(cohort).  Per element the arithmetic is the per-key one
    (``w * x`` in the accumulation dtype, children in order, one division).
    Every update's shapes and dtypes must match the first's: a mismatch
    raises the flat path's ``ValueError`` before any frame ships.

    Fault plane: each hop is carried by the same
    :func:`~repro.federated.faults.carry_frame` as a client upload — per-attempt
    loss/corruption draws, CRC check, bounded retries with doubling backoff
    between attempts — and every attempt's bytes hit the ledger's edge
    counters.  A hop that exhausts its retries delivers its partial over the
    in-process control channel instead of losing a whole subtree — the
    aggregate stays exact while the trace records the failure.  Backoff
    seconds accrue until :meth:`collect_penalty` is read, and only the
    synchronous round loop reads it (into the round's barrier): under
    ``mode="async"`` / ``"buffered"`` edge-hop backoff is accounted nowhere
    on the event clock.
    """

    name = "tree"

    def __init__(
        self,
        fanout: int = 2,
        codec: Optional[ArrayCodec] = None,
        ledger: Optional[CommunicationLedger] = None,
        faults: Optional[Any] = None,
        retries: int = 2,
        retry_backoff: float = 0.5,
    ) -> None:
        if fanout < 2:
            raise ValueError("tree fan-out must be at least 2")
        self.fanout = fanout
        self.codec = codec if codec is not None else build_codec("identity")
        self.ledger = ledger
        self.faults = faults
        self.retries = retries
        self.retry_backoff = retry_backoff
        self._pending_penalty = 0.0
        #: Edge frames delivered by the most recent :meth:`reduce` (ok
        #: records only; the ledger keeps the failed attempts too).
        self.last_edge_frames = 0

    def reduce(
        self,
        state_dicts: Sequence[Dict[str, np.ndarray]],
        num_samples: Sequence[int],
        scale: Optional[Sequence[float]] = None,
        coordinate: Any = 0,
    ) -> Dict[str, np.ndarray]:
        weights = _leaf_weights(state_dicts, num_samples, scale)
        leaves = _Leaves(state_dicts)
        # A node is (weight, leaf index) until its group packs it, then
        # (weight, columns).
        nodes: List[Tuple[float, Any]] = list(zip(weights, range(len(weights))))
        records: List[FrameRecord] = []
        self.last_edge_frames = 0
        level = 0
        while len(nodes) > self.fanout:
            level += 1
            nodes = [
                self._ship(
                    *self._combine(nodes[start : start + self.fanout], leaves),
                    leaves,
                    coordinate,
                    level,
                    node_index,
                    records,
                )
                for node_index, start in enumerate(range(0, len(nodes), self.fanout))
            ]
        if self.ledger is not None and records:
            self.ledger.record_edge_reduce(records)
        total, sums = self._combine(nodes, leaves)
        means = {dtype: column / column.dtype.type(total) for dtype, column in sums.items()}
        return PackedMessage(leaves.table, means).unpack()

    @staticmethod
    def _combine(
        group: List[Tuple[float, Any]], leaves: _Leaves
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """Sum a group's children column by column, left to right."""
        weight = sum(w for w, _ in group)
        sums: Optional[Dict[str, np.ndarray]] = None
        for child_weight, child in group:
            if isinstance(child, int):
                child = leaves.weighted(child, child_weight)
            if sums is None:
                # The first child is this reduce's own (a fresh leaf or a
                # received partial), so it becomes the accumulator.
                sums = {dtype: child[dtype] for dtype in leaves.rows}
                continue
            for dtype, column in sums.items():
                column += child[dtype]
        return weight, sums

    def _ship(
        self,
        weight: float,
        columns: Dict[str, np.ndarray],
        leaves: _Leaves,
        coordinate: Any,
        level: int,
        node_index: int,
        records: List[FrameRecord],
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """One edge→parent hop: encode, carry over the faulty wire, decode."""
        meta = {"weight": float(weight), "level": level, "node": node_index}
        frame = encode_frame("edge", self.codec, PackedMessage(leaves.table, columns), meta)
        hop = carry_frame(
            self.faults,
            frame,
            "edge",
            (coordinate, level, node_index),
            self.retries,
            self.retry_backoff,
        )
        records.extend(
            FrameRecord(node_index, frame.num_bytes, status) for status in hop.failures
        )
        self._pending_penalty += hop.backoff_seconds
        if not hop.arrived:
            # Retries exhausted: deliver in process (the reliable control
            # channel) rather than dropping a whole subtree's updates; the
            # ledger has recorded every failed attempt above.
            return weight, columns
        records.append(FrameRecord(node_index, frame.num_bytes))
        self.last_edge_frames += 1
        decoded, received_meta = decode_frame(
            frame,
            self.codec,
            packed=True,
            direction="edge",
            round_index=(coordinate, level, node_index),
        )
        return float(received_meta["weight"]), decoded.columns

    def collect_penalty(self) -> float:
        penalty = self._pending_penalty
        self._pending_penalty = 0.0
        return penalty


def build_reduce_backend(
    spec: str,
    fanout: int = 2,
    codec: Optional[ArrayCodec] = None,
    ledger: Optional[CommunicationLedger] = None,
    faults: Optional[Any] = None,
    retries: int = 2,
    retry_backoff: float = 0.5,
) -> ReduceBackend:
    """Construct a :class:`ReduceBackend` from its config-string spec."""
    if spec == "flat":
        return FlatReduceBackend()
    if spec == "tree":
        return TreeReduceBackend(
            fanout=fanout,
            codec=codec,
            ledger=ledger,
            faults=faults,
            retries=retries,
            retry_backoff=retry_backoff,
        )
    raise ValueError(f"unknown reduce backend {spec!r}; choose 'flat' or 'tree'")


__all__ = [
    "blend_states",
    "fedavg",
    "staleness_weight",
    "weighted_average_arrays",
    "ReduceBackend",
    "FlatReduceBackend",
    "TreeReduceBackend",
    "build_reduce_backend",
]
