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
  only packing a dict at entry still touches every array.  A
  :class:`PackedMessage` (table plus columns) skips the packing: the tree
  reduce's partials travel that way, and every frame decodes to one;
* :func:`flatten_message` / :func:`split_message` merge model state and
  payload arrays into one namespaced message and back — the message layout
  wire frames, checkpoints and registry versions share; a split state is a
  :class:`PackedState` over the leading slice of each column;
* a :class:`PayloadCodec` flattens a method's structured payload (e.g.
  RefFiL's stacked prompt groups) into named arrays so the array codec
  applies to prompts exactly as it does to model weights, instead of the
  payload riding as an opaque pickled dict; the generic
  :class:`TreePayloadCodec` is the only one;
* :func:`encode_version` is a model version's one serialization, its
  ``identity`` broadcast frame body (downlink length, pool blob and
  checkpoint entry alike); :func:`decode_version` inverts it;
* the :class:`CommunicationLedger` accumulates per-round, per-client,
  per-direction measured frame sizes (:class:`RoundCommRecord`).

Lossless codecs (``identity``, ``delta``) round-trip every array
bit-exactly — the property-test suite enforces it over all dtypes and
shapes — so simulations run through them produce accuracy matrices
identical to runs without any wire format at all.  A frame body is the
pickle of ``(meta, table blob, columns)``: the table travels as deflated
canonical JSON (:func:`_table_blob`), built once per distinct table and read
back once per distinct blob, and pickle never sees an array at a time.
"""

from __future__ import annotations

import functools
import json
import math
import pickle
import sys
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
        The locally trained model parameters; once its upload frame is
        decoded, a :class:`PackedState` that aggregation reads as columns.
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
    state_dict: Mapping[str, np.ndarray]
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
    (:class:`PackedMessage`), plus picklable metadata into one frame: the
    pickle of ``(meta, table blob, columns)``."""
    table, columns = codec.encode(arrays, reference)
    body = pickle.dumps(
        (meta, _table_blob(tuple(table)), columns), protocol=pickle.HIGHEST_PROTOCOL
    )
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

    Whatever the unpickler, the table blob's reader or the codec raises on a
    malformed body surfaces as :class:`FrameDecodeError` carrying
    ``coordinates`` (the :class:`TransportError` keywords of the frame being
    decoded).
    """
    try:
        meta, blob, columns = pickle.loads(frame.body)
        plan = (_table_of(blob), columns)
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
    message, skeleton = decode_frame(frame, IdentityCodec(), packed=True)
    state, payload = split_message(message, skeleton, TreePayloadCodec())
    return readonly_state_view(state), readonly_payload_view(payload)


# --------------------------------------------------------------------------- #
# Array codecs
# --------------------------------------------------------------------------- #


#: One array of a message: ``(name, dtype.str, shape)``.
Row = Tuple[str, str, Tuple[int, ...]]
#: One row per array of a message, in message order.
Table = Sequence[Row]

#: zlib level of a table blob: fixed, so equal tables give equal bytes.
_TABLE_LEVEL = 9
#: A table blob inflates to fewer bytes than this (about 40k rows of long names).
_TABLE_BOUND = 1 << 22


@functools.lru_cache(maxsize=64)
def _table_blob(table: Tuple[Row, ...]) -> bytes:
    """The table as it travels: canonical JSON rows ``[name, dtype.str,
    [dims]]``, deflated.  Memoised by the table's value, so a message of an
    already seen table costs a lookup and equal tables give equal bytes."""
    rows = [[name, dtype, list(shape)] for name, dtype, shape in table]
    text = json.dumps(rows, separators=(",", ":"))
    if len(text) >= _TABLE_BOUND:
        raise ValueError(f"a table of {len(rows)} rows takes {len(text)} bytes (>= {_TABLE_BOUND})")
    return zlib.compress(text.encode("ascii"), _TABLE_LEVEL)


def _table_row(row: Any) -> Row:
    """One JSON row checked back into a table row; ``ValueError`` unless it is
    ``[str, canonical dtype.str, [int >= 0, ...]]`` with an int64-sized product."""
    if not (
        isinstance(row, list)
        and len(row) == 3
        and isinstance(row[0], str)
        and isinstance(row[1], str)
        and isinstance(row[2], list)
        and all(type(dim) is int and dim >= 0 for dim in row[2])
        and math.prod(row[2]) < 1 << 63
    ):
        raise ValueError(f"table row {row!r:.80} is not [name, dtype, [dims]]")
    name, dtype, dims = row
    try:
        canonical = np.dtype(dtype).str
    except (TypeError, ValueError):
        canonical = None
    if canonical != dtype:
        raise ValueError(f"table row {name!r} has unknown dtype {dtype!r}")
    return name, dtype, tuple(dims)


@functools.lru_cache(maxsize=64)
def _table_of(blob: bytes) -> Tuple[Row, ...]:
    """Inverse of :func:`_table_blob`, memoised per blob with its
    :class:`_Layout`; ``ValueError`` unless ``blob`` inflates, to fewer than
    ``_TABLE_BOUND`` bytes, to a JSON list of well-formed rows."""
    inflater = zlib.decompressobj()
    try:
        text = inflater.decompress(blob, _TABLE_BOUND)
    except zlib.error as error:
        raise ValueError(f"table blob does not inflate: {error}") from None
    if inflater.unconsumed_tail or len(text) == _TABLE_BOUND:
        raise ValueError(f"table blob inflates to {_TABLE_BOUND} bytes or more")
    if not inflater.eof or inflater.unused_data:
        raise ValueError("table blob is truncated or has trailing bytes")
    try:
        rows = json.loads(text)
    except RecursionError:
        raise ValueError("table blob nests too deep") from None
    if not isinstance(rows, list):
        raise ValueError(f"table blob holds {type(rows).__name__}, not a list of rows")
    table = tuple(map(_table_row, rows))
    _layout_of(table)
    return table


class PackedMessage(NamedTuple):
    """A message already in its wire layout: the table and one flat column per
    dtype (keyed by ``dtype.str``, in order of first appearance), as
    :func:`_pack` makes it.  Codecs accept it wherever they accept a flat
    array dict and read its columns without writing to them."""

    table: Table
    columns: Dict[str, np.ndarray]

    def unpack(self) -> Dict[str, np.ndarray]:
        """The flat array dict; every array is a view of its dtype's column."""
        layout, columns = _checked(self.table, self.columns)
        return {
            name: columns[dtype][start:stop].reshape(shape)
            for name, dtype, start, stop, shape in layout.rows
        }


class PackedState(Mapping):
    """A model state kept in its wire layout: a read-only mapping over
    ``message`` (a :class:`PackedMessage`) that unpacks its per-key views the
    first time a key is read.  Aggregation reads ``message`` itself."""

    def __init__(self, table: Table, columns: Dict[str, np.ndarray]) -> None:
        self.message = PackedMessage(tuple(table), columns)

    @classmethod
    def of(cls, state: Mapping[str, np.ndarray]) -> "PackedState":
        """``state`` itself, or any other mapping packed once."""
        return state if isinstance(state, cls) else cls(*_pack(state))

    @functools.cached_property
    def _views(self) -> Dict[str, np.ndarray]:
        return self.message.unpack()

    def __getitem__(self, key: str) -> np.ndarray:
        return self._views[key]

    def __iter__(self):
        return (name for name, _, _ in self.message.table)

    def __len__(self) -> int:
        return len(self.message.table)

    def __reduce__(self):
        return PackedState, tuple(self.message)


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
    table: List[Row] = []
    chunks: Dict[str, List[np.ndarray]] = {}
    for name, value in arrays.items():
        value = np.asarray(value)
        table.append((name, value.dtype.str, value.shape))
        chunks.setdefault(table[-1][1], []).append(value)
    # Concatenating into the canonical ``np.dtype(key)`` drops the private
    # dtype instances a pool worker's unpickled arrays carry: the frame pickle
    # memoises one dtype object, so private ones would grow every frame.
    return table, {
        dtype: np.concatenate(parts, axis=None, dtype=np.dtype(dtype))
        for dtype, parts in chunks.items()
    }


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


class ArrayCodec:
    """Strategy turning a flat ``name -> ndarray`` dict into frame bodies.

    ``encode`` produces a *plan*, for every codec a ``(table, columns)``
    pair: the message's ``(name, dtype, shape)`` rows (a frame carries them
    as :func:`_table_blob`) and O(dtypes) flat arrays; it takes a
    :class:`PackedMessage` as well as a dict.  ``decode_packed`` inverts it
    into a :class:`PackedMessage` and raises ``ValueError`` when the columns
    do not add up to the table; ``decode`` unpacks that into the flat dict.
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
        return self.decode_packed(plan, reference).unpack()

    def decode_packed(
        self, plan: Any, reference: Optional[Dict[str, np.ndarray]] = None
    ) -> PackedMessage:
        table, columns = plan
        return PackedMessage(table, _checked(table, columns)[1])


class IdentityCodec(ArrayCodec):
    """The table and one raw column per dtype; decodes to views, bit-exact."""

    name = "identity"
    lossless = True

    def encode(self, arrays, reference=None):
        return _pack(arrays)


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

    def decode_packed(self, plan, reference=None):
        return super().decode_packed(self._rebuild(plan))


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
    column.  Without a compatible reference an array ships whole.  Decoding
    fills one column per dtype, each array's slice in place.
    """

    uses_reference = True

    def _select(self, new: np.ndarray, old: np.ndarray) -> Optional[np.ndarray]:
        """Sorted flat positions of ``new`` to ship; None ships the array whole."""
        raise NotImplementedError

    def encode(self, arrays, reference=None):
        if isinstance(arrays, PackedMessage):
            arrays = arrays.unpack()
        table: List[Row] = []
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
            table.append((name, value.dtype.str, value.shape))
            counts.append(-1 if kept is None else kept.size)
            chunks.setdefault(table[-1][1], []).append(flat)
        # Canonical dtypes, as in _pack.
        columns = {
            dtype: np.concatenate(parts, dtype=np.dtype(dtype)) for dtype, parts in chunks.items()
        }
        columns["counts"] = np.asarray(counts, dtype=np.int64)
        positions = np.concatenate(indices)
        columns["indices"] = positions.astype(np.min_scalar_type(positions.max(initial=0)))
        return table, columns

    def decode_packed(self, plan, reference=None):
        table, columns = plan
        layout = _layout(table)
        reader = _ColumnReader(columns)
        out = {dtype: np.empty(total, np.dtype(dtype)) for dtype, total in layout.totals.items()}
        counts = reader.take("counts", len(table)).tolist()
        for (name, dtype, start, stop, _), count in zip(layout.rows, counts):
            target = out[dtype][start:stop]
            if count < 0:
                target[...] = reader.take(dtype, stop - start)
                continue
            if reference is None or name not in reference:
                raise ValueError(
                    f"{self.name} frame encodes {name!r} against a reference the decoder lacks"
                )
            target[...] = np.reshape(reference[name], stop - start)
            target[reader.take("indices", count)] = reader.take(dtype, count)
        reader.finish()
        return PackedMessage(table, out)


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
            # Interned keys: an unpickled payload's keys are fresh strings, and
            # the frame pickle memoises by identity, so a resumed run's frames
            # would spell out a key a fresh run's share with a column name.
            return {
                sys.intern(key) if type(key) is str else key: cls.walk(
                    value, leaf, f"{path}/k:{key!r}"
                )
                for key, value in node.items()
            }
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


@functools.lru_cache(maxsize=64)
def _split_of(table: Tuple[Row, ...]) -> Tuple[Tuple[Row, ...], tuple]:
    """How a message of ``table`` splits: the state's rows (unprefixed) and
    the payload's rows with their column slices.  ``ValueError`` unless the
    state rows lead the table, as :func:`flatten_message` lays them out, so
    that the state is the leading slice of every column."""
    count = sum(name.startswith(_STATE_PREFIX) for name, _, _ in table)
    if not all(name.startswith(_STATE_PREFIX) for name, _, _ in table[:count]):
        raise ValueError("the message's state arrays do not lead its table")
    state = tuple((name[len(_STATE_PREFIX):], dtype, shape) for name, dtype, shape in table[:count])
    payload = tuple(
        (name[len(_PAYLOAD_PREFIX):], *rest)
        for name, *rest in _layout_of(table).rows[count:]
        if name.startswith(_PAYLOAD_PREFIX)
    )
    return state, payload


def split_message(
    message: Dict[str, np.ndarray] | PackedMessage, skeleton: Any, payload_codec: PayloadCodec
) -> Tuple[PackedState, Any]:
    """Inverse of :func:`flatten_message`: returns ``(state, payload)`` of a
    decoded :class:`PackedMessage` (a flat dict is packed once).  The state is
    a :class:`PackedState` over the leading slice of each column; the payload's
    arrays are copied out, so what a server keeps cannot pin the columns."""
    table, columns = _pack(message)
    rows, payload_rows = _split_of(tuple(table))
    totals = _layout_of(rows).totals
    state = PackedState(rows, {dtype: columns[dtype][:total] for dtype, total in totals.items()})
    payload_arrays = {
        name: columns[dtype][start:stop].reshape(shape).copy()
        for name, dtype, start, stop, shape in payload_rows
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
    "PackedState",
    "PayloadCodec",
    "TreePayloadCodec",
    "readonly_payload_view",
    "flatten_message",
    "split_message",
]
