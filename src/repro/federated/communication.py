"""Wire-format primitives of the communication plane: frames, codecs, ledger.

RefFiL's pitch includes being deployable on "privacy-sensitive and
resource-constrained devices", so communication volume is a first-class
quantity here — not an ``nbytes`` estimate but the length of the encoded
frame that would actually cross the wire.  The pieces fit together like
this (the transports in :mod:`repro.federated.transport` drive them):

* a :class:`WireFrame` is one encoded message (server→client broadcast,
  client→server upload, edge→parent partial); ``num_bytes`` is its measured
  size;
* an :class:`ArrayCodec` turns a flat ``name -> ndarray`` dict into the
  frame body and back.  Every plan is *columnar* — one ``(name, dtype,
  shape)`` table plus a few flat columns — so a message costs per element
  and per dtype, never per array (a RefFiL upload is 88 arrays with a median
  of 24 elements): ``identity`` ships one raw column per dtype,
  ``quantize8`` / ``quantize16`` one ``codes`` column and a ``lo`` / ``scale``
  entry per tensor, ``delta`` (lossless diff against a reference) and
  ``topk`` (magnitude sparsification of the diff, upload-only) one index
  column and the selected values.  What a table fixes about its columns —
  each array's slice, the per-dtype totals, the float segment sizes the
  quantizers reduce over — is worked out once per distinct table and
  cached, so per-array work happens once per table, not once per message;
  only packing a dict at entry and handing out views at exit still touch
  every array.  A :class:`PackedMessage` (table plus columns) skips the
  packing: the tree reduce's partials travel that way;
* a :class:`PayloadCodec` flattens a method's structured payload (e.g.
  RefFiL's stacked prompt groups) into named arrays so the array codec
  applies to prompts exactly as it does to model weights, instead of the
  payload riding as an opaque pickled dict; the generic
  :class:`TreePayloadCodec` is the only one;
* :func:`flatten_message` / :func:`split_message` merge model state and
  payload arrays into one namespaced flat dict and back — the message layout
  wire frames, checkpoints and registry versions share;
* :func:`encode_version` is a model version's one serialization, its
  ``identity`` broadcast frame body (downlink length, pool blob and
  checkpoint entry alike); :func:`decode_version` inverts it;
* the :class:`CommunicationLedger` accumulates per-round, per-client,
  per-direction measured frame sizes (:class:`RoundCommRecord`).

Lossless codecs (``identity``, ``delta``) round-trip every array
bit-exactly — the property-test suite enforces it over all dtypes and
shapes — so simulations run through them produce accuracy matrices
identical to runs without any wire format at all.  Only the ``(meta,
plan)`` envelope passes through pickle, never an array at a time.
"""

from __future__ import annotations

import functools
import math
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.nn.serialization import readonly_state_view

# --------------------------------------------------------------------------- #
# Client update (what a client uploads each round)
# --------------------------------------------------------------------------- #


@dataclass
class ClientUpdate:
    """Everything a selected client uploads at the end of a round.

    Attributes
    ----------
    client_id:
        The uploading client.
    state_dict:
        The locally trained model parameters.
    num_samples:
        Size of the client's local training set (the FedAvg weight).
    payload:
        Method-specific extras; RefFiL puts its per-class averaged local
        prompt group (``LPG_m``) here as ``{"prompt_groups": {"labels":
        int64 (n,), "vectors": (n, d)}}``, baselines leave it empty.
    train_loss:
        Mean local training loss (for logging / convergence monitoring).
    metrics:
        Optional per-component loss breakdown (e.g. RefFiL's ``loss_ce`` /
        ``loss_gpl`` / ``loss_dpcl`` terms of Eq. 14, keyed for the Table VII
        ablation).  Logging-only: not counted as communication volume.
    """

    client_id: int
    state_dict: Dict[str, np.ndarray]
    num_samples: int
    payload: Dict[str, Any] = field(default_factory=dict)
    train_loss: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Wire frames
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WireFrame:
    """One encoded message of the communication plane.

    ``body`` is the serialized payload as it would cross the wire; the
    ledger's numbers are ``len(body)`` — measured, not estimated.  ``kind``
    and ``codec`` are bookkeeping for the simulation side and are not
    counted (a real protocol would fold them into a fixed-size header, which
    is also where ``checksum`` — the CRC32 of ``body`` used by the fault
    plane's corruption detection — would live).
    """

    kind: str  # "broadcast" | "upload"
    codec: str
    body: bytes
    checksum: Optional[int] = None

    @property
    def num_bytes(self) -> int:
        return len(self.body)

    def checksum_ok(self) -> bool:
        """True when the body matches its checksum (or no checksum was recorded)."""
        return self.checksum is None or zlib.crc32(self.body) == self.checksum


class TransportError(RuntimeError):
    """A frame-level transport failure, carrying the frame's coordinates.

    The bare ``ValueError`` the codecs raise on a malformed frame says
    nothing about *whose* frame failed *where*; retry and drop policies (and
    the tests discriminating corruption from budget drops) need the
    coordinates, so every decode/verify failure surfaces as a subclass of
    this carrying ``(client_id, direction, task_id, round_index)``.
    """

    def __init__(
        self,
        message: str,
        *,
        client_id: Optional[int] = None,
        direction: Optional[str] = None,
        task_id: Optional[int] = None,
        round_index: Optional[Any] = None,
    ) -> None:
        context = ", ".join(
            f"{name}={value!r}"
            for name, value in (
                ("client_id", client_id),
                ("direction", direction),
                ("task_id", task_id),
                ("round_index", round_index),
            )
            if value is not None
        )
        super().__init__(f"{message} [{context}]" if context else message)
        self.client_id = client_id
        self.direction = direction
        self.task_id = task_id
        self.round_index = round_index


class FrameCorruptionError(TransportError):
    """A frame's body failed its checksum: corrupted in transit."""


class FrameDecodeError(TransportError):
    """A checksum-clean frame could not be decoded back into arrays."""


def encode_frame(
    kind: str,
    codec: "ArrayCodec",
    arrays: Dict[str, np.ndarray] | PackedMessage,
    meta: Any,
    reference: Optional[Dict[str, np.ndarray]] = None,
) -> WireFrame:
    """Encode a flat array dict, or a message already packed
    (:class:`PackedMessage`), plus picklable metadata into one frame."""
    plan = codec.encode(arrays, reference)
    body = pickle.dumps((meta, plan), protocol=pickle.HIGHEST_PROTOCOL)
    return WireFrame(kind=kind, codec=codec.name, body=body, checksum=zlib.crc32(body))


def decode_frame(
    frame: WireFrame,
    codec: "ArrayCodec",
    reference: Optional[Dict[str, np.ndarray]] = None,
    *,
    packed: bool = False,
    **coordinates: Any,
) -> Tuple[Any, Any]:
    """Inverse of :func:`encode_frame`: returns ``(arrays, meta)``, or with
    ``packed`` ``(PackedMessage, meta)``.

    Whatever the unpickler or the codec raises on a malformed body surfaces
    as :class:`FrameDecodeError` carrying ``coordinates`` (the
    :class:`TransportError` keywords of the frame being decoded).
    """
    try:
        meta, plan = pickle.loads(frame.body)
        if packed:
            return codec.decode_packed(plan, reference), meta
        return codec.decode(plan, reference), meta
    except (
        ValueError, KeyError, TypeError, IndexError, EOFError, pickle.UnpicklingError
    ) as error:
        raise FrameDecodeError(
            f"failed to decode {frame.kind} frame ({frame.num_bytes} bytes, "
            f"codec {frame.codec!r}): {error}",
            **coordinates,
        ) from error


def encode_version(state: Dict[str, np.ndarray], payload: Any) -> bytes:
    """A model version's one serialization: its ``identity`` broadcast frame
    body, the payload flattened by :class:`TreePayloadCodec`."""
    arrays, skeleton = flatten_message(state, payload, TreePayloadCodec())
    return encode_frame("broadcast", IdentityCodec(), arrays, skeleton).body


def decode_version(body: bytes) -> Tuple[Dict[str, np.ndarray], Any]:
    """Inverse of :func:`encode_version`: ``(state, payload)``, every array
    write-protected again (numpy's flag crosses no process or file), so a
    method that writes to its broadcast fails in a worker as it does serially."""
    frame = WireFrame(kind="broadcast", codec=IdentityCodec.name, body=body)
    arrays, skeleton = decode_frame(frame, IdentityCodec())
    state, payload = split_message(arrays, skeleton, TreePayloadCodec())
    return readonly_state_view(state), readonly_payload_view(payload)


# --------------------------------------------------------------------------- #
# Array codecs
# --------------------------------------------------------------------------- #


#: One row per array of a message, in message order: ``(name, dtype.str, shape)``.
Table = List[Tuple[str, str, Tuple[int, ...]]]


def _row(name: str, dtype: np.dtype, shape: Tuple[int, ...]) -> Tuple[str, str, Tuple[int, ...]]:
    """One table row, with a dtype string of its own (``dtype.str`` builds one
    per call): the frame pickle memoises by identity, so sharing changes bytes."""
    return (name, dtype.str, shape)


class PackedMessage(NamedTuple):
    """A message already in its wire layout: the table and one flat column per
    dtype (keyed by ``dtype.str``, in order of first appearance), as
    :func:`_pack` makes it.  Codecs accept it wherever they accept a flat
    array dict and read its columns without writing to them."""

    table: Table
    columns: Dict[str, np.ndarray]

    def unpack(self) -> Dict[str, np.ndarray]:
        """The flat array dict; every array is a view of its dtype's column."""
        return _unpack(self.table, self.columns)


@dataclass(frozen=True)
class _Layout:
    """What a table fixes about its columns, worked out once per distinct table
    and shared by every message of that table: nothing may write to it."""

    #: Per row ``(name, dtype, start, stop, shape)``: its slice of the dtype's column.
    rows: Tuple[Tuple[str, str, int, int, Tuple[int, ...]], ...]
    #: Elements per dtype column, in order of first appearance.
    totals: Dict[str, int]
    #: Per float dtype, the element counts of its non-empty arrays and where
    #: each starts in the column (read-only arrays).
    segments: Dict[str, Tuple[np.ndarray, np.ndarray]]

    def check(self, columns: Dict[str, np.ndarray]) -> None:
        """``ValueError`` unless ``columns`` holds exactly the table's elements.

        NumPy slices past a buffer's end without complaint and ignores a
        buffer that is too long, so a column off by one element must be
        caught here."""
        for key in self.totals:
            if key not in columns:
                raise ValueError(f"no column for the table's {key!r} arrays")
        for key, column in columns.items():
            if len(column) != self.totals.get(key, 0):
                raise ValueError(
                    f"column {key!r} holds {len(column)} elements, "
                    f"the table accounts for {self.totals.get(key, 0)}"
                )


@functools.lru_cache(maxsize=64)
def _layout_of(table: Tuple[Tuple[str, str, Tuple[int, ...]], ...]) -> _Layout:
    rows = []
    totals: Dict[str, int] = {}
    for name, dtype, shape in table:
        start = totals.get(dtype, 0)
        totals[dtype] = stop = start + math.prod(shape)
        rows.append((name, dtype, start, stop, shape))
    segments = {}
    for dtype in totals:
        if np.dtype(dtype).kind != "f":
            continue
        sizes = np.asarray(
            [stop - start for _, key, start, stop, _ in rows if key == dtype and stop > start],
            dtype=np.int64,
        )
        starts = np.cumsum(sizes) - sizes
        sizes.flags.writeable = starts.flags.writeable = False
        segments[dtype] = (sizes, starts)
    return _Layout(tuple(rows), totals, segments)


def _layout(table: Table) -> _Layout:
    """The table's :class:`_Layout`; a message of an already seen table costs a lookup."""
    return _layout_of(tuple(table))


def _pack(arrays: Any) -> Tuple[Table, Dict[str, np.ndarray]]:
    """A message as its table plus one flat column per dtype (keyed by ``dtype.str``).

    A :class:`PackedMessage` passes through (with a dict of its own, so a
    codec may replace columns without touching the caller's)."""
    if isinstance(arrays, PackedMessage):
        return arrays.table, dict(arrays.columns)
    table: Table = []
    chunks: Dict[str, List[np.ndarray]] = {}
    for name, value in arrays.items():
        value = np.asarray(value)
        table.append(_row(name, value.dtype, value.shape))
        chunks.setdefault(table[-1][1], []).append(value)
    return table, {dtype: np.concatenate(parts, axis=None) for dtype, parts in chunks.items()}


class _ColumnReader:
    """Hands out consecutive slices of named columns.  NumPy slices past a
    buffer's end without complaint and ignores one that is too long, so
    :meth:`finish` raises ``ValueError`` unless every column was used up exactly."""

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self.columns = columns
        self.offsets = dict.fromkeys(columns, 0)

    def take(self, key: str, count: int) -> np.ndarray:
        start = self.offsets[key]
        self.offsets[key] = start + count
        return self.columns[key][start : start + count]

    def finish(self) -> None:
        for key, stop in self.offsets.items():
            if stop != len(self.columns[key]):
                raise ValueError(
                    f"column {key!r} holds {len(self.columns[key])} elements, "
                    f"the table accounts for {stop}"
                )


def _checked(table: Table, columns: Dict[str, np.ndarray]) -> Tuple[_Layout, Dict[str, np.ndarray]]:
    """The table's layout and ``columns`` viewed through the canonical
    ``np.dtype(key)``; ``ValueError`` unless the columns add up to the table.

    An unpickled column carries a private copy of its dtype, which every
    later pickle of an array derived from it (a broadcast serialization, a
    checkpoint) would spell out once more, next to the canonical one.
    """
    layout = _layout(table)
    columns = {key: column.view(np.dtype(key)) for key, column in columns.items()}
    layout.check(columns)
    return layout, columns


def _unpack(table: Table, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`_pack`; every array is a view of its dtype's column."""
    layout, columns = _checked(table, columns)
    return {
        name: columns[dtype][start:stop].reshape(shape)
        for name, dtype, start, stop, shape in layout.rows
    }


class ArrayCodec:
    """Strategy turning a flat ``name -> ndarray`` dict into frame bodies.

    ``encode`` produces a picklable *plan* (the frame body is its pickle),
    for every codec a ``(table, columns)`` pair: the message's ``(name,
    dtype, shape)`` rows and O(dtypes) flat arrays; it takes a
    :class:`PackedMessage` as well as a dict.  ``decode`` inverts it and
    raises ``ValueError`` when the columns do not add up to the table;
    ``decode_packed`` does the same but returns a :class:`PackedMessage`.
    ``reference`` is the receiver's copy of the last
    message it acknowledged — codecs with ``uses_reference`` encode against
    it (and the decoder must be handed the *same* reference).  Codecs with
    ``lossless`` round-trip bit-exactly; lossy codecs preserve shape and
    dtype but not values.  ``broadcast_safe`` marks codecs usable on the
    server→client direction: sparsifying a *full model broadcast* against
    nothing would destroy it, so ``topk`` is upload-only and transports fall
    back to ``identity`` frames downlink.
    """

    name: str = "abstract"
    lossless: bool = False
    uses_reference: bool = False
    broadcast_safe: bool = True

    def encode(
        self, arrays: Dict[str, np.ndarray], reference: Optional[Dict[str, np.ndarray]] = None
    ) -> Any:
        raise NotImplementedError

    def decode(
        self, plan: Any, reference: Optional[Dict[str, np.ndarray]] = None
    ) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def decode_packed(
        self, plan: Any, reference: Optional[Dict[str, np.ndarray]] = None
    ) -> PackedMessage:
        return PackedMessage(*_pack(self.decode(plan, reference)))


class IdentityCodec(ArrayCodec):
    """The table and one raw column per dtype; decodes to views, bit-exact."""

    name = "identity"
    lossless = True

    def encode(self, arrays, reference=None):
        return _pack(arrays)

    def decode(self, plan, reference=None):
        return _unpack(*plan)

    def decode_packed(self, plan, reference=None):
        table, columns = plan
        return PackedMessage(table, _checked(table, columns)[1])


class QuantizeCodec(ArrayCodec):
    """Uniform per-tensor quantization of float arrays to ``bits``-bit integers.

    Each float dtype's column ships as one integer ``codes`` column plus a
    ``lo`` and a ``scale`` entry per non-empty tensor.  ``scale > 0`` marks a
    quantized tensor, ``scale == 0`` a constant one (``lo`` is all of it), a
    NaN ``scale`` one with non-finite values — quantizing a NaN/inf range is
    meaningless — whose elements stay, raw, in the dtype's own column, as
    non-float columns (labels, counters, masks) do.  Decoding maps codes back
    to ``lo + code * scale`` in the original dtype, so shapes and dtypes are
    preserved while values lose precision (the accuracy delta the bench
    reports).  Per element the arithmetic is a per-tensor loop's: subtract and
    divide in the value dtype, rebuild in float64.  When every tensor of a
    dtype is coded (every trained upload) nothing is gathered or scattered:
    encode reads the column itself and decode's rebuilt values are the column.
    """

    lossless = False

    def __init__(self, bits: int) -> None:
        if bits not in (8, 16):
            raise ValueError(f"quantization supports 8 or 16 bits, got {bits}")
        self.bits = bits
        self.name = f"quantize{bits}"
        self._qdtype = np.uint8 if bits == 8 else np.uint16
        self._levels = (1 << bits) - 1

    def encode(self, arrays, reference=None):
        table, columns = _pack(arrays)
        for dtype, (sizes, starts) in _layout(table).segments.items():
            column = columns[dtype]
            # min / max propagate NaN, so a non-finite tensor has a non-finite
            # range (as has one whose range overflows): it ships raw.
            lo = np.minimum.reduceat(column, starts).astype(np.float64)
            hi = np.maximum.reduceat(column, starts).astype(np.float64)
            with np.errstate(invalid="ignore", over="ignore"):
                scale = (hi - lo) / self._levels
            scale[~np.isfinite(scale)] = np.nan
            coded = scale > 0
            if coded.all():
                values, width, columns[dtype] = column, sizes, column[:0]
            else:
                values, width = column[np.repeat(coded, sizes)], sizes[coded]
                columns[dtype] = column[np.repeat(np.isnan(scale), sizes)]
            work = np.repeat(lo[coded].astype(column.dtype), width)
            np.subtract(values, work, out=work)
            work /= np.repeat(scale[coded].astype(column.dtype), width)
            columns[dtype + "/codes"] = np.rint(work, out=work).astype(self._qdtype)
            columns[dtype + "/lo"], columns[dtype + "/scale"] = lo, scale
        return table, columns

    def _rebuild(self, plan: Any) -> Tuple[Table, Dict[str, np.ndarray]]:
        """The plan with every float dtype's column rebuilt from its codes."""
        table, columns = plan
        columns = dict(columns)
        for dtype, (sizes, _) in _layout(table).segments.items():
            codes, lo, scale = (columns.pop(f"{dtype}/{part}") for part in ("codes", "lo", "scale"))
            raw = columns[dtype]
            if not len(lo) == len(scale) == len(sizes):
                raise ValueError(f"{len(lo)} lo / {len(scale)} scale entries for {len(sizes)} tensors")
            coded, dense = scale > 0, np.isnan(scale)
            every = coded.all()
            width = sizes if every else sizes[coded]
            if len(codes) != width.sum() or len(raw) != sizes[dense].sum():
                raise ValueError(
                    f"{len(codes)} codes + {len(raw)} raw {dtype!r} elements for "
                    f"{width.sum()} + {sizes[dense].sum()} in the table"
                )
            values = codes.astype(np.float64)
            values *= np.repeat(scale[coded], width)
            values += np.repeat(lo[coded], width)
            if every:
                columns[dtype] = values.astype(dtype, copy=False)
                continue
            column = np.repeat(lo.astype(dtype), sizes)  # constant tensors are done
            column[np.repeat(coded, sizes)] = values
            column[np.repeat(dense, sizes)] = raw
            columns[dtype] = column
        return table, columns

    def decode(self, plan, reference=None):
        return _unpack(*self._rebuild(plan))

    def decode_packed(self, plan, reference=None):
        table, columns = self._rebuild(plan)
        return PackedMessage(table, _checked(table, columns)[1])


def _compatible(reference: Optional[Dict[str, np.ndarray]], key: str, value: np.ndarray):
    """The reference array a diff-style codec may encode ``key`` against, if any."""
    if reference is None:
        return None
    base = reference.get(key)
    if base is None:
        return None
    base = np.asarray(base)
    if base.shape != value.shape or base.dtype != value.dtype:
        return None
    return base


class _DiffCodec(ArrayCodec):
    """Shared plan of the codecs that encode against the receiver's reference.

    Per array the encoder ships either all of it or the values at a few
    positions (:meth:`_select` decides; it is the one per-array step): the
    ``counts`` column holds -1 for "whole" and the number of positions
    otherwise (0: unchanged), every array's positions share the one
    ``indices`` column and what ships of each dtype shares that dtype's
    column.  Without a compatible reference an array ships whole.
    """

    uses_reference = True

    def _select(self, new: np.ndarray, old: np.ndarray) -> Optional[np.ndarray]:
        """Sorted flat positions of ``new`` to ship; None ships the array whole."""
        raise NotImplementedError

    def encode(self, arrays, reference=None):
        if isinstance(arrays, PackedMessage):
            arrays = arrays.unpack()
        table: Table = []
        counts: List[int] = []
        indices: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        chunks: Dict[str, List[np.ndarray]] = {}
        for name, value in arrays.items():
            value = np.asarray(value)
            flat = value.reshape(-1)
            base = _compatible(reference, name, value)
            kept = None if base is None or value.size == 0 else self._select(flat, base.reshape(-1))
            if kept is not None:
                indices.append(kept)
                flat = flat[kept]
            table.append(_row(name, value.dtype, value.shape))
            counts.append(-1 if kept is None else kept.size)
            chunks.setdefault(table[-1][1], []).append(flat)
        columns = {dtype: np.concatenate(parts) for dtype, parts in chunks.items()}
        columns["counts"] = np.asarray(counts, dtype=np.int64)
        positions = np.concatenate(indices)
        columns["indices"] = positions.astype(np.min_scalar_type(positions.max(initial=0)))
        return table, columns

    def decode(self, plan, reference=None):
        table, columns = plan
        reader = _ColumnReader(columns)
        arrays: Dict[str, np.ndarray] = {}
        for (name, dtype, shape), count in zip(table, reader.take("counts", len(table)).tolist()):
            if count < 0:
                arrays[name] = reader.take(dtype, math.prod(shape)).reshape(shape)
                continue
            if reference is None or name not in reference:
                raise ValueError(
                    f"{self.name} frame encodes {name!r} against a reference the decoder lacks"
                )
            flat = np.array(reference[name], copy=True).reshape(-1)
            flat[reader.take("indices", count)] = reader.take(dtype, count)
            arrays[name] = flat.reshape(shape)
        reader.finish()
        return arrays


class DeltaCodec(_DiffCodec):
    """Lossless sparse diff against the last acknowledged message.

    An array ships its changed positions, or whole when more than half the
    elements changed (indices would cost more than the array).  Changed
    values are shipped verbatim — NaNs compare unequal to themselves, so they
    always ship and the round-trip stays bit-exact.
    """

    name = "delta"
    lossless = True
    _DENSE_FRACTION = 0.5

    def _select(self, new, old):
        changed = np.flatnonzero(~(new == old))
        return None if changed.size > self._DENSE_FRACTION * new.size else changed


class TopKCodec(_DiffCodec):
    """Magnitude sparsification of the diff against the reference (upload-only).

    Keeps the 10% of positions (``_FRACTION``) whose change from the reference is
    largest in magnitude and ships their *exact new values*; the receiver
    keeps its reference values everywhere else.  Without a reference (or for
    non-float arrays) the array ships whole — sparsifying a message the
    receiver has no base for would destroy it, which is also why the codec
    is not ``broadcast_safe``: transports send full ``identity`` frames
    downlink and sparsify only the uplink, as gradient-sparsification
    systems do.
    """

    name = "topk"
    lossless = False
    broadcast_safe = False
    _FRACTION = 0.1

    def _select(self, new, old):
        k = max(1, int(np.ceil(self._FRACTION * new.size)))
        if new.dtype.kind != "f" or k >= new.size:
            return None
        kept = np.argpartition(np.abs(new - old), new.size - k)[-k:]
        kept.sort()
        return kept


#: Codec names accepted by :func:`build_codec`.
CODEC_NAMES = ("identity", "delta", "quantize8", "quantize16", "topk")


def build_codec(spec: str) -> ArrayCodec:
    """Construct an :class:`ArrayCodec` from its config-string spec."""
    if spec == "identity":
        return IdentityCodec()
    if spec == "delta":
        return DeltaCodec()
    if spec == "quantize8":
        return QuantizeCodec(8)
    if spec == "quantize16":
        return QuantizeCodec(16)
    if spec == "topk":
        return TopKCodec()
    raise ValueError(f"unknown codec {spec!r}; choose from {', '.join(CODEC_NAMES)}")


def codec_is_lossless(spec: str) -> bool:
    """True when runs through this codec reproduce no-wire numbers bit-for-bit."""
    return build_codec(spec).lossless


# --------------------------------------------------------------------------- #
# Payload codecs (method payloads -> named arrays)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _ArraySlot:
    """Placeholder left in a payload skeleton where an array was extracted."""

    name: str


class PayloadCodec:
    """Flattens a method payload into named arrays plus a structural skeleton.

    The arrays join the model state in the wire frame, so delta/quantize/topk
    apply to prompt payloads exactly as they do to weights; the skeleton (a
    small picklable tree) rides in the frame metadata.  ``unflatten`` must
    invert ``flatten`` exactly — the lossless-parity guarantee of the whole
    plane rests on it, and the property-test suite enforces it.
    """

    def flatten(self, payload: Any) -> Tuple[Dict[str, np.ndarray], Any]:
        raise NotImplementedError

    def unflatten(self, arrays: Dict[str, np.ndarray], skeleton: Any) -> Any:
        raise NotImplementedError


class TreePayloadCodec(PayloadCodec):
    """Generic payload codec: walk the dict/list/tuple tree, pull out arrays.

    Array leaves are replaced by :class:`_ArraySlot` markers named after
    their path (dict keys by ``repr`` so ``0`` and ``"0"`` cannot collide);
    every other leaf stays in the skeleton and round-trips through pickle.
    :meth:`walk` is the one definition of what a payload tree is.
    """

    @classmethod
    def walk(cls, node: Any, leaf: Callable[[Any, str], Any], path: str = "p") -> Any:
        """``node`` rebuilt (namedtuples keep their type) with every leaf —
        whatever is not a dict, list or tuple — replaced by ``leaf(value, path)``."""
        if isinstance(node, dict):
            return {key: cls.walk(value, leaf, f"{path}/k:{key!r}") for key, value in node.items()}
        if not isinstance(node, (list, tuple)):
            return leaf(node, path)
        items = (cls.walk(value, leaf, f"{path}/i:{i}") for i, value in enumerate(node))
        if isinstance(node, tuple) and hasattr(node, "_fields"):  # namedtuple
            return type(node)(*items)
        return type(node)(items)

    def flatten(self, payload):
        arrays: Dict[str, np.ndarray] = {}

        def extract(node: Any, path: str) -> Any:
            if not isinstance(node, np.ndarray):
                return node
            arrays[path] = node
            return _ArraySlot(path)

        skeleton = self.walk(payload, extract)
        return arrays, skeleton

    def unflatten(self, arrays, skeleton):
        return self.walk(
            skeleton,
            lambda node, _: np.asarray(arrays[node.name]) if isinstance(node, _ArraySlot) else node,
        )


def readonly_payload_view(payload: Any) -> Any:
    """``payload`` with every array a no-copy, write-protected view, walked as
    :class:`TreePayloadCodec` walks it: one payload is shared by every client
    of a round, so an in-place write must raise instead of leaking into the
    others (and diverging from the pool, whose workers write to a copy)."""
    codec = TreePayloadCodec()
    arrays, skeleton = codec.flatten(payload)
    return codec.unflatten(readonly_state_view(arrays), skeleton)


# --------------------------------------------------------------------------- #
# Messages: model state + method payload as one flat array dict
# --------------------------------------------------------------------------- #

_STATE_PREFIX = "s::"
_PAYLOAD_PREFIX = "p::"


def flatten_message(
    state: Dict[str, np.ndarray], payload: Any, payload_codec: PayloadCodec
) -> Tuple[Dict[str, np.ndarray], Any]:
    """Merge model state and payload arrays into one namespaced flat dict.

    The one message layout shared by wire frames, checkpoints and registry
    versions; returns ``(arrays, skeleton)``, the skeleton being the payload
    codec's structure of the payload.
    """
    payload_arrays, skeleton = payload_codec.flatten(payload)
    arrays: Dict[str, np.ndarray] = {
        _STATE_PREFIX + key: value for key, value in state.items()
    }
    for name, value in payload_arrays.items():
        arrays[_PAYLOAD_PREFIX + name] = value
    return arrays, skeleton


def split_message(
    arrays: Dict[str, np.ndarray], skeleton: Any, payload_codec: PayloadCodec
) -> Tuple[Dict[str, np.ndarray], Any]:
    """Inverse of :func:`flatten_message`: returns ``(state, payload)``."""
    state = {
        key[len(_STATE_PREFIX):]: value
        for key, value in arrays.items()
        if key.startswith(_STATE_PREFIX)
    }
    # Decoded arrays are views of a message-sized column; what a server keeps
    # of an upload (the payload) is copied out so it cannot pin that buffer.
    payload_arrays = {
        key[len(_PAYLOAD_PREFIX):]: np.array(value)
        for key, value in arrays.items()
        if key.startswith(_PAYLOAD_PREFIX)
    }
    return state, payload_codec.unflatten(payload_arrays, skeleton)


# --------------------------------------------------------------------------- #
# Communication ledger
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FrameRecord:
    """One client's frame (or failed transmission attempt) in one round."""

    client_id: int
    num_bytes: int
    #: ``ok`` — delivered in its round; ``deferred`` — an over-budget upload
    #: that arrived a round late; ``dropped`` — an over-budget upload the
    #: straggler policy discarded (its bytes never count as delivered);
    #: ``lost`` — a transmission attempt the fault plane lost on the wire;
    #: ``corrupt`` — an attempt that arrived but failed its checksum.  Lost
    #: and corrupt attempts are per-attempt records: a retried upload leaves
    #: one failed record per failed attempt plus its final record.
    status: str = "ok"


@dataclass(frozen=True)
class RoundCommRecord:
    """Measured traffic of one communication round, per client and direction."""

    task_id: int
    round_index: int
    codec: str
    broadcast_frames: Tuple[FrameRecord, ...]
    upload_frames: Tuple[FrameRecord, ...]

    @property
    def broadcast_bytes(self) -> int:
        return sum(frame.num_bytes for frame in self.broadcast_frames)

    @property
    def upload_bytes(self) -> int:
        """Bytes of uploads that reached the server (failed attempts excluded)."""
        return sum(f.num_bytes for f in self.upload_frames if f.status in ("ok", "deferred"))

    @property
    def dropped_upload_bytes(self) -> int:
        return sum(f.num_bytes for f in self.upload_frames if f.status == "dropped")


@dataclass
class CommunicationLedger:
    """Accumulates per-round communication volume for a whole run.

    Every number is a measured wire-frame length: the transport feeds
    :meth:`record_measured_round` one :class:`RoundCommRecord` per round
    (``records`` keeps the per-client detail; broadcast frames are per
    *selected* client, so a straggler that never uploads still paid for its
    download), the tree reduce feeds :meth:`record_edge_reduce`.
    """

    uploaded_bytes: int = 0
    broadcast_bytes: int = 0
    rounds: int = 0
    dropped_upload_bytes: int = 0
    dropped_uploads: int = 0
    deferred_uploads: int = 0
    expired_uploads: int = 0
    lost_frames: int = 0
    corrupt_frames: int = 0
    records: List[RoundCommRecord] = field(default_factory=list)
    #: Hierarchical-aggregation traffic: edge aggregators shipping weighted
    #: partial reduces up the tree (``reduce_backend="tree"``).  ``edge_bytes``
    #: counts every transmission attempt (a retried hop paid the wire twice);
    #: ``edge_frames`` counts delivered partials; the lost/corrupt counters
    #: count failed per-attempt records, mirroring the upload-frame fault
    #: accounting.  All zero under the flat star.
    edge_bytes: int = 0
    edge_frames: int = 0
    edge_lost_frames: int = 0
    edge_corrupt_frames: int = 0

    def record_measured_round(self, record: RoundCommRecord) -> None:
        """Account one round from measured wire-frame lengths."""
        self.uploaded_bytes += record.upload_bytes
        self.broadcast_bytes += record.broadcast_bytes
        self.dropped_upload_bytes += record.dropped_upload_bytes
        self.dropped_uploads += sum(1 for f in record.upload_frames if f.status == "dropped")
        self.deferred_uploads += sum(1 for f in record.upload_frames if f.status == "deferred")
        self.lost_frames += sum(1 for f in record.upload_frames if f.status == "lost")
        self.corrupt_frames += sum(1 for f in record.upload_frames if f.status == "corrupt")
        self.rounds += 1
        self.records.append(record)

    def record_expired_uploads(self, count: int) -> None:
        """Deferred uploads that never arrived (e.g. flushed at a task boundary)."""
        self.expired_uploads += count

    def record_edge_reduce(self, frames: List[FrameRecord]) -> None:
        """Account one tree reduce's edge→parent hops (all attempts)."""
        for frame in frames:
            self.edge_bytes += frame.num_bytes
            if frame.status == "ok":
                self.edge_frames += 1
            elif frame.status == "lost":
                self.edge_lost_frames += 1
            elif frame.status == "corrupt":
                self.edge_corrupt_frames += 1

    @property
    def measured(self) -> bool:
        """True once a round of actual encoded frames has been recorded."""
        return self.rounds > 0

    @property
    def total_bytes(self) -> int:
        return self.uploaded_bytes + self.broadcast_bytes + self.edge_bytes


__all__ = [
    "ClientUpdate",
    "CommunicationLedger",
    "FrameRecord",
    "RoundCommRecord",
    "WireFrame",
    "TransportError",
    "FrameCorruptionError",
    "FrameDecodeError",
    "ArrayCodec",
    "IdentityCodec",
    "DeltaCodec",
    "QuantizeCodec",
    "TopKCodec",
    "CODEC_NAMES",
    "build_codec",
    "codec_is_lossless",
    "encode_frame",
    "decode_frame",
    "encode_version",
    "decode_version",
    "PackedMessage",
    "PayloadCodec",
    "TreePayloadCodec",
    "readonly_payload_view",
    "flatten_message",
    "split_message",
]
