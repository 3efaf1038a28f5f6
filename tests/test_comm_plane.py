"""Tests of the communication plane: codecs, payload codecs, ledger, transport.

The plane's central guarantee — lossless codecs are results-invariant — is
enforced at two levels: property tests that every lossless codec round-trips
arbitrary state dicts bit-exactly (all dtypes and shapes, empty and scalar
tensors, NaNs), and end-to-end parity of whole simulations run through the
``delta`` codec against the ``identity`` codec, across executors and compute
dtypes.  Ledger numbers are checked to be sums of actual encoded
frame lengths and to reconcile with the parallel executor's ``RoundIPC``
where both observe the same broadcast bytes.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import build_method
from repro.continual import DomainIncrementalScenario
from repro.core import GlobalPromptStore
from repro.datasets import SyntheticDomainDataset
from repro.datasets.synthetic import generate_domain_split
from repro.federated import (
    CommunicationLedger,
    FederatedConfig,
    FederatedDomainIncrementalSimulation,
    TreePayloadCodec,
    build_codec,
    build_transport,
    codec_is_lossless,
)
from repro.federated import transport as transport_module
from repro.federated.aggregation import TreeReduceBackend
from repro.federated.client import ClientHandle, LocalTrainingConfig
from repro.federated.communication import (
    ClientUpdate,
    IdentityCodec,
    QuantizeCodec,
    decode_frame,
    decode_version,
    encode_frame,
    flatten_message,
    split_message,
)
from repro.federated.execution import ParallelExecutor
from repro.federated.increment import ClientGroup
from repro.federated.server import BroadcastHandle, FederatedServer
from repro.federated.transport import FrameDecodeError
from repro.nn.linear import Linear

# --------------------------------------------------------------------------- #
# Hypothesis strategies: arbitrary state dicts
# --------------------------------------------------------------------------- #

_DTYPES = (np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_)
_SHAPES = ((), (0,), (1,), (7,), (3, 4), (2, 0), (2, 3, 2))


@st.composite
def arrays(draw):
    """One array of any dtype/shape, empty and scalar included, floats maybe with a NaN."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = draw(st.sampled_from(_SHAPES))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if dtype.kind == "f":
        values = rng.standard_normal(shape).astype(dtype)
        if values.size and draw(st.booleans()):
            flat = values.reshape(-1)
            flat[draw(st.integers(0, values.size - 1))] = np.nan
    elif dtype.kind == "b":
        values = rng.integers(0, 2, size=shape).astype(dtype)
    else:
        values = rng.integers(0, 100, size=shape).astype(dtype)
    return values


@st.composite
def state_dicts(draw):
    """Flat name -> array dicts over all dtypes/shapes, empty and scalar included."""
    num = draw(st.integers(0, 4))
    return {f"layer_{index}": draw(arrays()) for index in range(num)}


class _Pair(NamedTuple):
    left: Any
    right: Any


#: Payload trees: dicts (int and str keys), lists, tuples and namedtuples over
#: array leaves and the non-array leaves that ride in a frame's skeleton.
payload_trees = st.dictionaries(
    st.text(max_size=3),
    st.recursive(
        st.one_of(arrays(), st.integers(), st.text(max_size=3), st.none(), st.booleans()),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            st.builds(_Pair, children, children),
            st.dictionaries(
                st.one_of(st.integers(0, 3), st.text(max_size=2)), children, max_size=3
            ),
        ),
        max_leaves=8,
    ),
    max_size=3,
)


def _mutate(state: dict, rng: np.random.Generator) -> dict:
    """A plausible next-round version of ``state``: some arrays nudged, some kept."""
    out = {}
    for key, value in state.items():
        value = value.copy()
        if value.size and rng.random() < 0.7:
            flat = value.reshape(-1)
            index = int(rng.integers(0, value.size))
            if value.dtype.kind == "f":
                flat[index] = flat[index] * 2 + 1 if np.isfinite(flat[index]) else 0.0
            elif value.dtype.kind == "b":
                flat[index] = ~flat[index]
            else:
                flat[index] = flat[index] + 1
        out[key] = value
    return out


def _assert_bit_exact(left: dict, right: dict) -> None:
    assert list(left) == list(right)
    for key in left:
        a, b = np.asarray(left[key]), np.asarray(right[key])
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), key


class TestLosslessCodecRoundTrip:
    @pytest.mark.parametrize("spec", ["identity", "delta"])
    @given(state=state_dicts(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_without_reference(self, spec, state, seed):
        codec = build_codec(spec)
        frame = encode_frame("upload", codec, state, meta=None)
        decoded, _ = decode_frame(frame, codec)
        _assert_bit_exact(state, decoded)

    @given(state=state_dicts(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_delta_round_trip_against_reference(self, state, seed):
        codec = build_codec("delta")
        rng = np.random.default_rng(seed)
        new = _mutate(state, rng)
        frame = encode_frame("upload", codec, new, meta=None, reference=state)
        decoded, _ = decode_frame(frame, codec, reference=state)
        _assert_bit_exact(new, decoded)

    @given(state=state_dicts())
    @settings(max_examples=15, deadline=None)
    def test_delta_against_itself_ships_almost_nothing(self, state):
        codec = build_codec("delta")
        unchanged = {key: value.copy() for key, value in state.items()}
        full = encode_frame("upload", codec, state, meta=None).num_bytes
        same = encode_frame("upload", codec, unchanged, meta=None, reference=state).num_bytes
        nonempty = sum(v.size for v in state.values())
        if nonempty:
            # NaNs compare unequal to themselves, so they legitimately re-ship.
            has_nan = any(
                v.dtype.kind == "f" and np.isnan(v).any() for v in state.values()
            )
            if not has_nan:
                assert same <= full
        decoded, _ = decode_frame(
            encode_frame("upload", codec, unchanged, meta=None, reference=state),
            codec,
            reference=state,
        )
        _assert_bit_exact(unchanged, decoded)

    def test_lossless_flags(self):
        assert codec_is_lossless("identity") and codec_is_lossless("delta")
        assert not codec_is_lossless("quantize8")
        assert not codec_is_lossless("topk")


class TestLossyCodecs:
    def _state(self):
        rng = np.random.default_rng(0)
        return {
            "w": rng.standard_normal((16, 8)),
            "b": rng.standard_normal(8).astype(np.float32),
            "steps": np.arange(5, dtype=np.int64),
            "flat": np.full((4,), 3.5),
            "empty": np.zeros((0, 2)),
        }

    @pytest.mark.parametrize("spec,bits", [("quantize8", 8), ("quantize16", 16)])
    def test_quantize_bounds_error_and_preserves_structure(self, spec, bits):
        codec = build_codec(spec)
        state = self._state()
        decoded, _ = decode_frame(encode_frame("u", codec, state, None), codec)
        for key in state:
            assert decoded[key].dtype == state[key].dtype
            assert decoded[key].shape == state[key].shape
        # Non-float and constant arrays survive exactly.
        np.testing.assert_array_equal(decoded["steps"], state["steps"])
        np.testing.assert_array_equal(decoded["flat"], state["flat"])
        for key in ("w", "b"):
            span = float(state[key].max() - state[key].min())
            step = span / (2**bits - 1)
            assert np.abs(decoded[key] - state[key]).max() <= step

    def test_quantize8_compresses_float64(self):
        codec = build_codec("quantize8")
        state = {"w": np.random.default_rng(0).standard_normal((64, 64))}
        raw = encode_frame("u", build_codec("identity"), state, None).num_bytes
        packed = encode_frame("u", codec, state, None).num_bytes
        assert raw / packed >= 4.0

    def test_topk_keeps_largest_changes_exactly(self):
        codec = build_codec("topk")
        base = {"w": np.zeros(32)}
        new = {"w": np.zeros(32)}
        new["w"][[3, 8, 11, 20]] = [5.0, -7.0, 2.0, 0.5]
        decoded, _ = decode_frame(
            encode_frame("u", codec, new, None, reference=base), codec, reference=base
        )
        # 10% of 32 rounds up to 4 kept positions: the four changes survive exactly.
        np.testing.assert_array_equal(decoded["w"], new["w"])
        new["w"][25] = 0.25  # a fifth, smallest change is the one dropped
        decoded, _ = decode_frame(
            encode_frame("u", codec, new, None, reference=base), codec, reference=base
        )
        assert decoded["w"][25] == 0.0
        np.testing.assert_array_equal(decoded["w"][[3, 8, 11, 20]], new["w"][[3, 8, 11, 20]])

    def test_topk_without_reference_ships_dense(self):
        codec = build_codec("topk")
        state = {"w": np.random.default_rng(1).standard_normal(32)}
        decoded, _ = decode_frame(encode_frame("u", codec, state, None), codec)
        np.testing.assert_array_equal(decoded["w"], state["w"])

    def test_codec_spec_validation(self):
        with pytest.raises(ValueError):
            build_codec("gzip")
        # topk keeps one fixed fraction: a parameterised spec is unknown.
        for spec in ("topk:0.05", "topk:0.1", "topk:abc"):
            with pytest.raises(ValueError, match="unknown codec"):
                build_codec(spec)


class _PerArrayQuantize:
    """The per-array quantizer the columnar :class:`QuantizeCodec` replaced, kept
    verbatim as the reference the new decode must match bit for bit."""

    def __init__(self, bits):
        self._qdtype = np.uint8 if bits == 8 else np.uint16
        self._levels = (1 << bits) - 1

    def encode(self, arrays):
        plan = {}
        for key, value in arrays.items():
            value = np.asarray(value)
            if value.dtype.kind != "f" or value.size == 0 or not np.isfinite(value).all():
                plan[key] = ("dense", value)
                continue
            lo = float(value.min())
            hi = float(value.max())
            if hi == lo:
                plan[key] = ("const", str(value.dtype), value.shape, lo)
                continue
            scale = (hi - lo) / self._levels
            codes = np.rint((value - lo) / scale).astype(self._qdtype)
            plan[key] = ("q", str(value.dtype), value.shape, lo, scale, codes)
        return plan

    def decode(self, plan):
        arrays = {}
        for key, record in plan.items():
            mode = record[0]
            if mode == "dense":
                arrays[key] = np.asarray(record[1])
            elif mode == "const":
                _, dtype, shape, lo = record
                arrays[key] = np.full(shape, lo, dtype=np.dtype(dtype))
            else:
                _, dtype, shape, lo, scale, codes = record
                arrays[key] = (lo + codes.astype(np.float64) * scale).astype(
                    np.dtype(dtype)
                ).reshape(shape)
        return arrays


@st.composite
def quantizable_messages(draw):
    """Mixed-dtype messages: float32 / float64 / integer tensors, empty and
    one-element shapes, constant tensors, NaN / +-inf, magnitudes up to 1e30."""
    message = {}
    for index in range(draw(st.integers(0, 6))):
        dtype = np.dtype(draw(st.sampled_from((np.float32, np.float64, np.int64, np.uint8))))
        shape = draw(st.sampled_from(_SHAPES))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        if dtype.kind != "f":
            message[f"t{index}"] = rng.integers(0, 100, size=shape).astype(dtype)
            continue
        kind = draw(st.sampled_from(("random", "random", "constant", "nonfinite")))
        if kind == "constant":
            values = np.full(shape, draw(st.sampled_from((0.0, -0.0, 3.5, -1e30))), dtype=dtype)
        else:
            magnitude = draw(st.sampled_from((1e-3, 1.0, 1e3, 1e30)))
            values = (rng.standard_normal(shape) * magnitude).astype(dtype)
            if kind == "nonfinite" and values.size:
                position = draw(st.integers(0, values.size - 1))
                values.reshape(-1)[position] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        message[f"t{index}"] = values
    return message


def _tampered(codec, grow):
    """``codec`` with every float ``codes`` column one element short (or long)."""
    encode = codec.encode

    def bad_encode(arrays, reference=None):
        table, columns = encode(arrays, reference)
        for key in [key for key in columns if key.endswith("/codes")]:
            codes = columns[key]
            columns[key] = np.append(codes, codes[:1]) if grow else codes[:-1]
        return table, columns

    codec.encode = bad_encode
    return codec


class TestColumnarPlans:
    @pytest.mark.parametrize("bits", [8, 16])
    @given(message=quantizable_messages())
    @settings(deadline=None)  # the loaded profile's count: 1,000 under CI's deep sweep
    def test_quantize_matches_the_per_array_reference_bit_for_bit(self, bits, message):
        reference = _PerArrayQuantize(bits)
        with np.errstate(all="ignore"):
            expected = reference.decode(reference.encode(message))
        codec = QuantizeCodec(bits)
        decoded, _ = decode_frame(encode_frame("u", codec, message, None), codec)
        _assert_bit_exact(expected, decoded)

    @pytest.mark.parametrize("spec", ["identity", "delta", "quantize8", "quantize16", "topk"])
    def test_buffers_per_message_do_not_grow_with_the_number_of_arrays(self, spec):
        """The speed-up rests on this count: O(dtypes) buffers, not O(arrays)."""
        codec = build_codec(spec)

        def out_of_band_buffers(num_arrays):
            rng = np.random.default_rng(num_arrays)
            base = {f"w{i}": rng.standard_normal(24) for i in range(num_arrays)}
            new = {key: value + (rng.random(24) < 0.2) for key, value in base.items()}
            buffers = []
            pickle.dumps(codec.encode(new, base), protocol=5, buffer_callback=buffers.append)
            return len(buffers)

        assert out_of_band_buffers(10) == out_of_band_buffers(200) <= 5

    @pytest.mark.parametrize("grow", [False, True])
    def test_a_codes_column_off_by_one_is_a_typed_error_on_every_path(self, grow):
        server = FederatedServer(Linear(3, 2, rng=np.random.default_rng(0)))
        update = ClientUpdate(
            client_id=7, state_dict=dict(server.global_state), num_samples=4, payload={}
        )

        down = build_transport("loopback", "quantize8", CommunicationLedger())
        down.down_codec = _tampered(build_codec("quantize8"), grow)
        with pytest.raises(FrameDecodeError) as excinfo:
            down.broadcast_round(server, [7], task_id=1, round_index=2)
        assert (excinfo.value.client_id, excinfo.value.direction) == (7, "broadcast")

        up = build_transport("loopback", "quantize8", CommunicationLedger())
        up.broadcast_round(server, [7], task_id=1, round_index=2)
        up.codec = _tampered(build_codec("quantize8"), grow)
        with pytest.raises(FrameDecodeError) as excinfo:
            up.collect_updates([update])
        error = excinfo.value
        assert (error.client_id, error.direction, error.task_id, error.round_index) == (7, "upload", 1, 2)

        tree = TreeReduceBackend(fanout=2, codec=_tampered(build_codec("quantize8"), grow))
        with pytest.raises(FrameDecodeError) as excinfo:
            tree.reduce([update.state_dict] * 4, [1, 2, 3, 4], coordinate=9)
        # (coordinate, level, node): the first partial of the first level.
        assert (excinfo.value.direction, excinfo.value.round_index) == ("edge", (9, 1, 0))

    def test_a_kept_payload_array_does_not_pin_the_upload_buffer(self):
        server = FederatedServer(Linear(64, 64, rng=np.random.default_rng(0)))
        transport = build_transport("loopback", "quantize8", CommunicationLedger())
        transport.broadcast_round(server, [0], task_id=0, round_index=0)
        payload = {"prompts": np.random.default_rng(1).standard_normal((4, 8))}
        update = ClientUpdate(
            client_id=0, state_dict=dict(server.global_state), num_samples=4, payload=payload
        )
        (delivered,) = transport.collect_updates([update])
        kept = delivered.payload["prompts"]
        assert kept.shape == (4, 8)
        # The model rode in the same column (64 * 64 + 64 more elements).
        assert kept.base is None or kept.base.size <= payload["prompts"].size


class TestBroadcastMemo:
    """One reference-free downlink frame per :class:`BroadcastHandle`.

    A corrupted memoised frame is impossible by construction — the CRC is
    checked before the memo is stored (``LoopbackTransport._receive``) — so
    nothing here re-verifies per client; the tests count encodes instead.
    """

    @pytest.fixture
    def encodes(self, monkeypatch):
        """The ``kind`` of every frame the transport module encodes."""
        kinds = []
        real = transport_module.encode_frame

        def counting(kind, *args, **kwargs):
            kinds.append(kind)
            return real(kind, *args, **kwargs)

        monkeypatch.setattr(transport_module, "encode_frame", counting)
        return kinds

    @staticmethod
    def _dispatch(transport, server, client_id, index):
        handle = transport.broadcast_round(server, [client_id], task_id=0, round_index=index)
        transport.collect_updates([])  # a crashed client: the download was still paid for
        return handle

    def test_an_unchanged_handle_is_encoded_once_and_recorded_every_time(self, encodes):
        server = FederatedServer(Linear(6, 4, rng=np.random.default_rng(0)))
        server.broadcast_payload = {"prompts": np.linspace(-1.0, 1.0, 12).reshape(3, 4)}
        transport = build_transport("loopback", "quantize8", CommunicationLedger())
        handles = []
        for index, client_id in enumerate([11, 5, 8]):
            handles.append(self._dispatch(transport, server, client_id, index))
            assert list(transport.last_broadcast_bytes) == [client_id]
        assert encodes == ["broadcast"]
        assert handles[0] is handles[1] is handles[2]
        frames = [record.broadcast_frames for record in transport.ledger.records]
        assert [[f.client_id for f in round_frames] for round_frames in frames] == [[11], [5], [8]]
        assert len({f.num_bytes for round_frames in frames for f in round_frames}) == 1
        assert transport.state_dict()["ack"] == {}

        # A second transport (its own codec object) misses the memo: a fresh
        # encode / decode of the same handle, bit-identical to the shared one.
        fresh = self._dispatch(
            build_transport("loopback", "quantize8", CommunicationLedger()), server, 0, 0
        )
        assert encodes == ["broadcast", "broadcast"] and fresh is not handles[0]
        assert list(fresh.state) == list(handles[0].state)
        for key, value in fresh.state.items():
            assert value.tobytes() == handles[0].state[key].tobytes()
        assert fresh.payload["prompts"].tobytes() == handles[0].payload["prompts"].tobytes()
        # Lossy, so the memo really is the decoded frame and not the server's arrays.
        assert fresh.payload["prompts"].tobytes() != server.broadcast_payload["prompts"].tobytes()

    @pytest.mark.parametrize(
        "advance",
        [
            lambda server, update: setattr(server, "broadcast_payload", {"round": np.ones(2)}),
            lambda server, update: server.aggregate([update]),
            lambda server, update: setattr(server, "global_state", update.state_dict),
        ],
        ids=["assign_broadcast_payload", "aggregate", "assign_global_state"],
    )
    def test_every_way_the_server_moves_on_forces_a_new_encode(self, encodes, advance):
        server = FederatedServer(Linear(6, 4, rng=np.random.default_rng(0)))
        transport = build_transport("loopback", "quantize8", CommunicationLedger())
        update = ClientUpdate(
            client_id=1,
            state_dict={key: value + 1.0 for key, value in server.global_state.items()},
            num_samples=4,
            payload={},
        )
        before = self._dispatch(transport, server, 1, 0)
        advance(server, update)
        after = self._dispatch(transport, server, 1, 1)
        assert encodes == ["broadcast", "broadcast"] and after is not before

    def test_a_buffered_run_encodes_each_model_version_once(
        self, encodes, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """A dispatch cohort is not a model version: until a flush advances
        the model, every dispatch — across cohort boundaries — rides one frame."""
        config = replace(
            tiny_federated_config,
            mode="buffered",
            codec="quantize8",
            rounds_per_task=3,
            buffer_size=4,
        )
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method("finetune", tiny_backbone_config, num_tasks=scenario.num_tasks)
        result = FederatedDomainIncrementalSimulation(scenario, method, config).run()
        cohorts_per_version = {}
        for event in result.event_log:
            if event["kind"] == "dispatch":
                cohort = (event["task_id"], event["index"] // config.clients_per_round)
                cohorts_per_version.setdefault(event["version"], set()).add(cohort)
        assert any(len(cohorts) > 1 for cohorts in cohorts_per_version.values())
        assert encodes.count("broadcast") == len(cohorts_per_version)

    def test_a_reference_reading_codec_never_takes_the_memo(self, encodes):
        server = FederatedServer(Linear(6, 4, rng=np.random.default_rng(0)))
        transport = build_transport("loopback", "delta", CommunicationLedger())
        for index, client_id in enumerate([3, 3, 9]):
            self._dispatch(transport, server, client_id, index)
        assert encodes == ["broadcast"] * 3
        assert server.broadcast_view().delivery is None
        assert sorted(transport.state_dict()["ack"]) == [3, 9]
        # The dense first frame, then a diff against the acknowledged copy.
        first, second, _ = (r.broadcast_frames[0].num_bytes for r in transport.ledger.records)
        assert second < first


class TestPayloadCodecs:
    def test_tree_codec_round_trips_nested_payloads(self):
        codec = TreePayloadCodec()
        payload = {
            "prompt_groups": {"0": np.arange(4.0), "2": np.ones(4)},
            "nested": [np.zeros((2, 2)), {"deep": np.arange(3)}, "text", 7],
            0: np.ones(1),  # int key must not collide with the str key "0"
            "0": np.zeros(1),
            "scalars": (1.5, None, True),
        }
        arrays, skeleton = codec.flatten(payload)
        rebuilt = codec.unflatten(arrays, skeleton)
        assert rebuilt.keys() == payload.keys()
        np.testing.assert_array_equal(rebuilt[0], payload[0])
        np.testing.assert_array_equal(rebuilt["0"], payload["0"])
        np.testing.assert_array_equal(
            rebuilt["prompt_groups"]["2"], payload["prompt_groups"]["2"]
        )
        assert rebuilt["nested"][2:] == ["text", 7]
        assert rebuilt["scalars"] == payload["scalars"]

    @pytest.mark.parametrize("codec_name", ["identity", "delta"])
    def test_reffil_payloads_ride_the_generic_codec(
        self, codec_name, tiny_spec, tiny_backbone_config
    ):
        """RefFiL builds its upload and its store already stacked, so the
        method's generic codec adds 2 and 3 payload arrays to a message and
        a lossless frame returns them bit-exactly, in label order."""
        method = build_method("refil", tiny_backbone_config, num_tasks=2)
        model = method.build_model()
        server = FederatedServer(model)
        client = ClientHandle(
            client_id=0,
            task_id=0,
            group=ClientGroup.NEW,
            dataset=generate_domain_split(tiny_spec, 0, "train"),
            rng=np.random.default_rng(0),
            training=LocalTrainingConfig(local_epochs=1, batch_size=8),
        )
        update = method.local_update(model, server.global_state, {}, client)
        method.aggregate(server, [update])
        store_payload = dict(server.broadcast_payload)
        codec = build_codec(codec_name)
        payload_codec = method.payload_codec()
        for payload, added in ((update.payload, 2), (store_payload, 3)):
            arrays, skeleton = flatten_message(update.state_dict, payload, payload_codec)
            assert len(arrays) == len(update.state_dict) + added
            # A reference one element off per float array: delta ships sparse diffs.
            reference = {name: value.copy() for name, value in arrays.items()}
            for value in reference.values():
                if value.dtype.kind == "f" and value.size:
                    value.flat[0] += 1.0
            frame = encode_frame("upload", codec, arrays, skeleton, reference)
            decoded, meta = decode_frame(frame, codec, reference)
            _, rebuilt = split_message(decoded, meta, payload_codec)
            _assert_bit_exact(
                payload.get("prompt_groups", payload), rebuilt.get("prompt_groups", rebuilt)
            )
        store = GlobalPromptStore.from_payload(
            rebuilt, tiny_backbone_config.num_classes, tiny_backbone_config.embed_dim
        )
        _assert_bit_exact(method.store.representatives, store.representatives)


def _assert_same_tree(left, right) -> None:
    """Same container types, keys and order all the way down; every array of
    ``right`` bit-exact and write-protected."""
    assert type(left) is type(right)
    if isinstance(left, np.ndarray):
        assert (left.dtype, left.shape) == (right.dtype, right.shape)
        assert left.tobytes() == right.tobytes()
        assert not right.flags.writeable
    elif isinstance(left, dict):
        assert list(left) == list(right)
        for key in left:
            _assert_same_tree(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            _assert_same_tree(a, b)
    else:
        assert left == right


class TestOneSerialization:
    """A model version has one serialization, its identity broadcast frame body,
    and ``decode_version`` is what workers and checkpoint restore read it with."""

    @given(state=state_dicts(), payload=payload_trees)
    @settings(deadline=None)  # the loaded profile's count: 1,000 under CI's deep sweep
    def test_a_version_round_trips_through_its_one_serialization(self, state, payload):
        decoded = decode_version(BroadcastHandle(state, payload).serialized())
        _assert_same_tree(state, decoded[0])
        _assert_same_tree(payload, decoded[1])


# --------------------------------------------------------------------------- #
# End-to-end: whole simulations through the wire format
# --------------------------------------------------------------------------- #


def _run(tiny_spec, tiny_backbone_config, config, method_name="refil"):
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
    method = build_method(method_name, tiny_backbone_config, num_tasks=scenario.num_tasks)
    return FederatedDomainIncrementalSimulation(scenario, method, config).run()


@pytest.fixture
def comm_config(tiny_federated_config):
    # Two rounds per task so delta acks and straggler deferral have a next
    # round to land in.
    return replace(tiny_federated_config, rounds_per_task=2)


class TestTransportParity:
    def test_lossless_delta_matches_identity(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        identity = _run(tiny_spec, tiny_backbone_config, comm_config)
        delta = _run(tiny_spec, tiny_backbone_config, replace(comm_config, codec="delta"))
        np.testing.assert_array_equal(identity.metrics.matrix, delta.metrics.matrix)
        assert identity.round_losses == delta.round_losses
        assert identity.round_loss_components == delta.round_loss_components
        assert identity.communication.measured and delta.communication.measured

    def test_delta_parity_parallel_executor_float32(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        base = replace(comm_config, dtype="float32")
        identity = _run(tiny_spec, tiny_backbone_config, base)
        wired = _run(
            tiny_spec,
            tiny_backbone_config,
            replace(base, codec="delta", executor="parallel", num_workers=2),
        )
        np.testing.assert_array_equal(identity.metrics.matrix, wired.metrics.matrix)
        assert identity.round_losses == wired.round_losses

    def test_ledger_totals_are_sums_of_frame_lengths(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        result = _run(tiny_spec, tiny_backbone_config, replace(comm_config, codec="delta"))
        ledger = result.communication
        assert ledger.measured
        assert len(ledger.records) == ledger.rounds
        assert ledger.uploaded_bytes == sum(
            frame.num_bytes
            for record in ledger.records
            for frame in record.upload_frames
            if frame.status != "dropped"
        )
        assert ledger.broadcast_bytes == sum(
            frame.num_bytes
            for record in ledger.records
            for frame in record.broadcast_frames
        )
        assert ledger.uploaded_bytes == sum(record.upload_bytes for record in ledger.records)
        assert ledger.broadcast_bytes == sum(record.broadcast_bytes for record in ledger.records)
        # Every selected client is charged a download every round.
        for record in ledger.records:
            assert len(record.broadcast_frames) == comm_config.clients_per_round

    def test_ledger_reconciles_with_round_ipc(
        self, tiny_spec, tiny_backbone_config, comm_config, monkeypatch
    ):
        """Where ledger and executor observe the same traffic, the bytes agree.

        Under the identity codec every round has three measures of one model
        version's broadcast: each ledger broadcast record, the blob each
        worker message carried (``RoundIPC.broadcast_bytes / num_messages``)
        and the length of the version's encoded identity frame.
        """
        versions = []
        run_round = ParallelExecutor.run_round

        def spy(self, method, model, broadcast, clients):
            versions.append((broadcast.state, broadcast.payload))
            return run_round(self, method, model, broadcast, clients)

        monkeypatch.setattr(ParallelExecutor, "run_round", spy)
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method("refil", tiny_backbone_config, num_tasks=2)
        simulation = FederatedDomainIncrementalSimulation(
            scenario,
            method,
            replace(comm_config, executor="parallel", num_workers=2),
        )
        result = simulation.run()
        ledger = result.communication
        ipc_log = simulation.executor.ipc_log
        assert len(ipc_log) == len(ledger.records) == len(versions)
        for record, ipc, (state, payload) in zip(ledger.records, ipc_log, versions):
            frame = encode_frame(
                "broadcast", IdentityCodec(), *flatten_message(state, payload, TreePayloadCodec())
            )
            assert {f.num_bytes for f in record.broadcast_frames} == {frame.num_bytes}
            assert ipc.broadcast_bytes == ipc.num_messages * frame.num_bytes

    def test_quantized_run_compresses_and_still_learns(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        # Eight bits a value against float64's 64: the bound reads the wire
        # codec, not the compute dtype, so both runs state theirs.
        float64 = replace(comm_config, dtype="float64")
        identity = _run(tiny_spec, tiny_backbone_config, float64)
        quantized = _run(tiny_spec, tiny_backbone_config, replace(float64, codec="quantize8"))
        assert quantized.communication.measured
        assert (
            identity.communication.uploaded_bytes
            >= 4 * quantized.communication.uploaded_bytes
        )
        assert np.isfinite(quantized.metrics.average)
        assert all(np.isfinite(loss) for loss in quantized.round_losses)


class TestBandwidthScenarios:
    def _frame_bytes(self, tiny_spec, tiny_backbone_config, comm_config):
        result = _run(tiny_spec, tiny_backbone_config, comm_config)
        record = result.communication.records[0]
        return record.upload_frames[0].num_bytes

    def test_drop_stragglers_is_deterministic_and_keeps_one(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        frame = self._frame_bytes(tiny_spec, tiny_backbone_config, comm_config)
        config = replace(comm_config, bandwidth_limit=frame, drop_stragglers=True)
        first = _run(tiny_spec, tiny_backbone_config, config)
        second = _run(tiny_spec, tiny_backbone_config, config)
        ledger = first.communication
        # The per-client multipliers straddle 1.0, so a frame-sized budget
        # must split the population: some drops, never a whole round.
        assert ledger.dropped_uploads > 0
        assert ledger.dropped_upload_bytes > 0
        for record in ledger.records:
            assert any(f.status != "dropped" for f in record.upload_frames)
        np.testing.assert_array_equal(first.metrics.matrix, second.metrics.matrix)
        assert first.round_losses == second.round_losses
        assert (
            first.communication.dropped_uploads == second.communication.dropped_uploads
        )

    def test_deferred_uploads_arrive_next_round_and_expire_at_task_end(
        self, tiny_spec, tiny_backbone_config, comm_config
    ):
        frame = self._frame_bytes(tiny_spec, tiny_backbone_config, comm_config)
        config = replace(comm_config, bandwidth_limit=frame, drop_stragglers=False)
        result = _run(tiny_spec, tiny_backbone_config, config)
        ledger = result.communication
        assert ledger.dropped_uploads == 0
        assert ledger.deferred_uploads + ledger.expired_uploads > 0
        deferred_seen = [
            sum(1 for f in record.upload_frames if f.status == "deferred")
            for record in ledger.records
        ]
        # A deferral can never land in the first round of a task.
        rounds_per_task = config.rounds_per_task
        for task_first in range(0, len(deferred_seen), rounds_per_task):
            assert deferred_seen[task_first] == 0
        # Full coverage: every encoded upload is delivered, deferred-then-
        # delivered, or expired (finalize() accounts end-of-run leftovers) —
        # nothing vanishes from the books.
        total_uploads = sum(len(r.upload_frames) for r in ledger.records)
        assert total_uploads + ledger.expired_uploads == sum(
            len(r.broadcast_frames) for r in ledger.records
        )

    def test_run_cache_keeps_codec_distinct_under_bandwidth_limits(self):
        """Lossless codecs fold together in the run cache ONLY without a budget:
        with one, drop/defer outcomes depend on codec frame sizes."""
        from repro.experiments.runner import _normalize_execution_knobs

        free_delta = _normalize_execution_knobs(FederatedConfig(codec="delta"))
        free_identity = _normalize_execution_knobs(FederatedConfig(codec="identity"))
        assert free_delta == free_identity
        limited_delta = _normalize_execution_knobs(
            FederatedConfig(codec="delta", bandwidth_limit=1000, drop_stragglers=True)
        )
        limited_identity = _normalize_execution_knobs(
            FederatedConfig(codec="identity", bandwidth_limit=1000, drop_stragglers=True)
        )
        assert limited_delta != limited_identity

    def test_budget_seeding_is_per_client_and_deterministic(self):
        ledger = CommunicationLedger()
        make = lambda: build_transport(
            "loopback", "identity", ledger, seed=3, bandwidth_limit=1000
        )
        first, second = make(), make()
        budgets = {cid: first.budget_for(cid) for cid in range(8)}
        assert budgets == {cid: second.budget_for(cid) for cid in range(8)}
        assert len(set(budgets.values())) > 1  # heterogeneous population

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(codec="gzip")
        with pytest.raises(ValueError):
            FederatedConfig(bandwidth_limit=-1)
        with pytest.raises(ValueError):
            build_transport("quantum", "identity", CommunicationLedger())
        with pytest.raises(ValueError, match="codec"):
            FederatedConfig(codec="topk:0.05")
