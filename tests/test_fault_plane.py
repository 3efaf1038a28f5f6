"""Fault plane: deterministic injection, retries, self-healing, checkpoint/resume."""

from __future__ import annotations

import os
import pickle
import shutil
import stat
import subprocess
import sys
import textwrap
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import BaselineConfig
from repro.baselines.finetune import FinetuneMethod
from repro.federated import (
    CheckpointCorruptionError,
    CheckpointMismatchError,
    FaultInjector,
    FaultSpec,
    FrameCorruptionError,
    FrameDecodeError,
    TransportError,
    WorkerDiedError,
    checkpoint_name,
    latest_checkpoint,
    load_checkpoint,
    parse_checkpoint_name,
    save_checkpoint,
    simulation_state_hash,
    verify_frame,
)
from repro.federated.communication import (
    CommunicationLedger,
    IdentityCodec,
    TreePayloadCodec,
    WireFrame,
    build_codec,
    decode_frame,
    decode_version,
    encode_frame,
    flatten_message,
)
from repro.federated.checkpoint import config_fingerprint
from repro.federated.communication import ClientUpdate
from repro.federated.config import FederatedConfig
from repro.federated.faults import Hop, carry_frame
from repro.federated.server import FederatedServer
from repro.federated.transport import LoopbackTransport
from repro.nn.linear import Linear
from repro.serving.registry import ModelRegistry


def _matrix_bytes(simulation) -> bytes:
    return simulation.evaluator.accuracy_matrix._matrix.tobytes()


class _WorkerKiller(FinetuneMethod):
    """A method whose local update hard-exits the hosting process.

    ``os._exit`` skips every exception path, so the worker dies exactly like
    a crashed process: no result, no error message, just a corpse for the
    pool's liveness check to find.
    """

    name = "worker-killer"

    def local_update(self, model, global_state, broadcast_payload, client):
        os._exit(3)


# --------------------------------------------------------------------------- #
# FaultSpec / injector determinism
# --------------------------------------------------------------------------- #
class TestFaultSpec:
    def test_defaults_are_disabled(self):
        assert not FaultSpec().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_crash_rate": 0.1},
            {"upload_loss_rate": 0.1},
            {"upload_corruption_rate": 0.1},
            {"server_restart_every": 2},
        ],
    )
    def test_any_nonzero_knob_enables(self, kwargs):
        assert FaultSpec(**kwargs).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_crash_rate": -0.1},
            {"upload_loss_rate": 1.5},
            {"server_restart_every": -1},
            {"upload_corruption_rate": 1.5},
            {"client_crash_rate": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    @pytest.mark.parametrize("name", ["worker_kill_rate", "crash_fraction"])
    def test_a_retired_field_is_refused(self, name):
        """A config that still names a retired field fails loudly instead of
        running without it."""
        with pytest.raises(TypeError, match=name):
            FaultSpec(**{name: 0.5})


_FRAME = encode_frame("upload", build_codec("identity"), {"w": np.arange(8.0)}, None)
_CHANNELS = ("upload", "edge")


def _query_all(injector: FaultInjector, order, retries: int = 1):
    """Run a fixed query program — both wire channels — over the given coordinate order."""
    for a, b, c in order:
        injector.client_crashes(a, b, c)
        for channel in _CHANNELS:
            carry_frame(injector, _FRAME, channel, (a, b, c), retries, 0.5)
    return injector.trace


class TestInjectorDeterminism:
    COORDS = [(t, r, c) for t in range(2) for r in range(2) for c in range(3)]

    @given(
        seed=st.integers(0, 2**16),
        crash=st.floats(0.0, 1.0, allow_nan=False),
        lose=st.floats(0.0, 1.0, allow_nan=False),
        corrupt=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_is_pure_function_of_seed_and_spec(self, seed, crash, lose, corrupt):
        spec = FaultSpec(
            client_crash_rate=crash,
            upload_loss_rate=lose,
            upload_corruption_rate=corrupt,
        )
        first = _query_all(FaultInjector(seed, spec), self.COORDS)
        second = _query_all(FaultInjector(seed, spec), self.COORDS)
        assert first == second

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_fired_faults_are_order_independent(self, seed):
        spec = FaultSpec(
            client_crash_rate=0.5, upload_loss_rate=0.5, upload_corruption_rate=0.5
        )
        forward = _query_all(FaultInjector(seed, spec), self.COORDS)
        backward = _query_all(FaultInjector(seed, spec), list(reversed(self.COORDS)))
        as_set = lambda trace: {tuple(sorted(entry.items())) for entry in trace}
        assert as_set(forward) == as_set(backward)

    def test_corrupt_frame_always_fails_checksum(self):
        injector = FaultInjector(3, FaultSpec(upload_corruption_rate=1.0))
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(6.0)}, None)
        assert frame.checksum_ok()
        for attempt in range(1, 6):
            mangled = injector.corrupt_frame(frame, 0, 0, 1, attempt)
            assert not mangled.checksum_ok()
            assert mangled.num_bytes == frame.num_bytes

    def test_server_restart_is_periodic_without_rng(self):
        injector = FaultInjector(0, FaultSpec(server_restart_every=3))
        fired = [counter for counter in range(1, 10) if injector.server_restarts(counter)]
        assert fired == [3, 6, 9]
        assert injector.counters["server_restarts"] == 3

    def test_state_dict_roundtrip(self):
        spec = FaultSpec(client_crash_rate=0.9)
        injector = FaultInjector(5, spec)
        _query_all(injector, self.COORDS)
        clone = FaultInjector(5, spec)
        clone.load_state_dict(injector.state_dict())
        assert clone.trace == injector.trace
        assert clone.summary() == injector.summary()


# --------------------------------------------------------------------------- #
# The faulty hop: pinned traces, retry bound, backoff
# --------------------------------------------------------------------------- #
#: ``FaultInjector.trace`` / ``counters`` recorded at the commit before the four
#: per-attempt predicates and the two retry loops became ``carry_frame``:
#: ``FaultSpec(upload_loss_rate=0.5, upload_corruption_rate=0.5)``, ``retries=2``
#: (attempts 1-3), the upload hops below and then the edge hops, per seed.  A
#: checkpoint written there carries ``faults.trace``; a run resumed from it here
#: must keep extending the same trace.  Rows are ``(kind, *coordinates, attempt)``.
_PINNED_UPLOADS = [(0, 0, 1), (0, 1, 2), (1, 0, 0), (1, 1, 2)]
_PINNED_EDGES = [(0, 1, 0), (0, 2, 1), (3, 1, 2), (3, 2, 0)]
_PINNED = {
    0: (
        [
            ("frame_corrupt", 0, 0, 1, 1),
            ("frame_lost", 0, 1, 2, 1),
            ("frame_lost", 1, 0, 0, 1),
            ("frame_corrupt", 1, 0, 0, 2),
            ("frame_lost", 1, 0, 0, 3),
            ("frame_lost", 1, 1, 2, 1),
            ("frame_lost", 1, 1, 2, 2),
            ("frame_lost", 1, 1, 2, 3),
            ("edge_frame_corrupt", 0, 1, 0, 1),
            ("edge_frame_lost", 0, 1, 0, 2),
            ("edge_frame_corrupt", 0, 1, 0, 3),
            ("edge_frame_lost", 3, 1, 2, 1),
            ("edge_frame_lost", 3, 1, 2, 2),
            ("edge_frame_lost", 3, 1, 2, 3),
            ("edge_frame_lost", 3, 2, 0, 1),
            ("edge_frame_lost", 3, 2, 0, 2),
            ("edge_frame_lost", 3, 2, 0, 3),
        ],
        {"frames_lost": 13, "frames_corrupted": 4},
    ),
    1: (
        [
            ("frame_lost", 0, 0, 1, 1),
            ("frame_lost", 0, 0, 1, 2),
            ("frame_corrupt", 0, 0, 1, 3),
            ("frame_corrupt", 1, 1, 2, 1),
            ("edge_frame_lost", 0, 1, 0, 1),
            ("edge_frame_corrupt", 0, 2, 1, 1),
            ("edge_frame_lost", 3, 1, 2, 1),
            ("edge_frame_corrupt", 3, 2, 0, 1),
            ("edge_frame_corrupt", 3, 2, 0, 2),
            ("edge_frame_corrupt", 3, 2, 0, 3),
        ],
        {"frames_lost": 4, "frames_corrupted": 6},
    ),
    2: (
        [
            ("frame_lost", 0, 1, 2, 1),
            ("frame_lost", 0, 1, 2, 2),
            ("frame_lost", 0, 1, 2, 3),
            ("frame_lost", 1, 1, 2, 1),
            ("frame_lost", 1, 1, 2, 2),
            ("frame_corrupt", 1, 1, 2, 3),
            ("edge_frame_lost", 0, 1, 0, 1),
            ("edge_frame_lost", 0, 1, 0, 2),
            ("edge_frame_lost", 0, 1, 0, 3),
            ("edge_frame_corrupt", 0, 2, 1, 1),
            ("edge_frame_lost", 0, 2, 1, 2),
            ("edge_frame_lost", 3, 1, 2, 1),
            ("edge_frame_corrupt", 3, 2, 0, 1),
            ("edge_frame_lost", 3, 2, 0, 2),
        ],
        {"frames_lost": 11, "frames_corrupted": 3},
    ),
}
_UPLOAD_KEYS = ("kind", "task_id", "round_index", "client_id", "attempt")
_EDGE_KEYS = ("kind", "coordinate", "level", "node", "attempt")


class TestTransportRetries:
    @pytest.mark.parametrize("seed", sorted(_PINNED))
    def test_reproduces_the_traces_pinned_before_the_merge(self, seed):
        rows, counters = _PINNED[seed]
        injector = FaultInjector(
            seed, FaultSpec(upload_loss_rate=0.5, upload_corruption_rate=0.5)
        )
        hops = [carry_frame(injector, _FRAME, "upload", at, 2, 0.5) for at in _PINNED_UPLOADS]
        hops += [carry_frame(injector, _FRAME, "edge", at, 2, 0.5) for at in _PINNED_EDGES]
        assert injector.trace == [
            dict(zip(_EDGE_KEYS if row[0].startswith("edge") else _UPLOAD_KEYS, row))
            for row in rows
        ]
        fired = {key: count for key, count in injector.counters.items() if count}
        assert fired == counters
        # The hops' own reports agree with what the trace recorded.
        assert sum(len(hop.failures) for hop in hops) == len(rows)

    @given(
        channel=st.sampled_from(_CHANNELS),
        seed=st.integers(0, 2**16),
        retries=st.integers(0, 4),
        lose=st.floats(0.0, 1.0, allow_nan=False),
        corrupt=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_attempts_never_exceed_bound(self, channel, seed, retries, lose, corrupt):
        spec = FaultSpec(upload_loss_rate=lose, upload_corruption_rate=corrupt)
        hop = carry_frame(FaultInjector(seed, spec), _FRAME, channel, (0, 0, 1), retries, 0.5)
        assert 1 <= hop.attempts <= retries + 1
        assert len(hop.failures) == (hop.attempts - 1 if hop.arrived else hop.attempts)
        assert all(status in ("lost", "corrupt") for status in hop.failures)
        assert hop.backoff_seconds >= 0.0

    @given(channel=st.sampled_from(_CHANNELS), retries=st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_certain_loss_exhausts_exactly_the_bound(self, channel, retries):
        injector = FaultInjector(0, FaultSpec(upload_loss_rate=1.0))
        hop = carry_frame(injector, _FRAME, channel, (0, 0, 7), retries, 0.25)
        assert not hop.arrived
        assert hop.attempts == retries + 1
        assert hop.failures == ("lost",) * (retries + 1)
        # Backoff is waited *between* attempts, on both channels: nothing
        # follows the final failure.  0.25 * (1 + 2 + ... + 2^(r-1)).
        assert hop.backoff_seconds == pytest.approx(0.25 * (2.0**retries - 1.0))

    def test_zero_fault_transmit_is_a_single_clean_attempt(self, monkeypatch):
        def no_draws(*labels):
            raise AssertionError(f"a zero-fault hop drew from {labels!r}")

        monkeypatch.setattr("repro.federated.faults.spawn_rng", no_draws)
        crashes_only = FaultInjector(0, FaultSpec(client_crash_rate=0.5))  # no frame faults
        for channel in _CHANNELS:
            for injector in (None, crashes_only):
                hop = carry_frame(injector, _FRAME, channel, (0, 0, 1), 3, 0.5)
                assert hop == Hop(arrived=True, attempts=1, backoff_seconds=0.0, failures=())


# --------------------------------------------------------------------------- #
# Transport: the straggler rule, error hierarchy
# --------------------------------------------------------------------------- #
def _wire_update(client_id: int, size: int) -> ClientUpdate:
    return ClientUpdate(client_id, {"w": np.arange(float(size))}, num_samples=4)


class TestStragglerRule:
    """Over budget or out of retries, a straggler meets one drop-or-defer rule."""

    #: (cause, drop_stragglers) -> per round (upload frame statuses, delivered client ids).
    #: "budget": client 2's frame is over every budget, client 1's under; both
    #: upload in round 0, client 1 alone in round 1.  "retries": every attempt
    #: is lost; client 2 uploads in round 0, nobody in round 1.
    EXPECTED = {
        ("budget", True): [([(1, "ok"), (2, "dropped")], [1]), ([(1, "ok")], [1])],
        # A deferred over-budget upload arrives behind the next round's own.
        ("budget", False): [([(1, "ok")], [1]), ([(1, "ok"), (2, "deferred")], [1, 2])],
        ("retries", True): [([(2, "lost")] * 3 + [(2, "dropped")], []), ([], [])],
        # Out of retries, the intact in-process frame is re-requested once the
        # round's own uploads are in: it arrives "deferred" within the round.
        ("retries", False): [([(2, "lost")] * 3 + [(2, "deferred")], [2]), ([], [])],
    }

    @pytest.mark.parametrize("codec", ["identity", "delta"])
    @pytest.mark.parametrize("cause, drop", sorted(EXPECTED))
    def test_drop_or_defer(self, cause, drop, codec):
        ledger = CommunicationLedger()
        transport = LoopbackTransport(
            ledger,
            build_codec(codec),
            bandwidth_limit=2000 if cause == "budget" else 0,
            drop_stragglers=drop,
            retries=2,
            retry_backoff=0.5,
            faults=FaultInjector(0, FaultSpec(upload_loss_rate=1.0)) if cause == "retries" else None,
        )
        server = FederatedServer(Linear(3, 2, rng=np.random.default_rng(0)))
        small, large = _wire_update(1, 4), _wire_update(2, 1000)
        rounds = [[small, large], [small]] if cause == "budget" else [[large], []]
        for round_index, (uploads, (statuses, arrived)) in enumerate(
            zip(rounds, self.EXPECTED[cause, drop])
        ):
            transport.broadcast_round(server, [u.client_id for u in uploads], 0, round_index)
            delivered = transport.collect_updates(uploads)
            assert [update.client_id for update in delivered] == arrived
            frames = ledger.records[-1].upload_frames
            assert [(frame.client_id, frame.status) for frame in frames] == statuses
            for update in delivered:
                np.testing.assert_array_equal(
                    update.state_dict["w"], (small if update.client_id == 1 else large).state_dict["w"]
                )
            if cause == "retries" and round_index == 0:
                # The client paid for three attempts and the two waits between them.
                assert transport.last_penalty_seconds == {2: 1.5}
                assert transport.last_upload_bytes == {2: 3 * frames[0].num_bytes}
        assert transport.state_dict()["deferred"] == []
        assert ledger.dropped_uploads == (1 if drop else 0)
        assert ledger.deferred_uploads == (0 if drop else 1)


class TestTransportErrors:
    def test_verify_frame_raises_with_coordinates(self):
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(4.0)}, None)
        body = bytearray(frame.body)
        body[0] ^= 0xFF
        mangled = WireFrame(
            kind=frame.kind, codec=frame.codec, body=bytes(body), checksum=frame.checksum
        )
        with pytest.raises(FrameCorruptionError) as excinfo:
            verify_frame(mangled, client_id=4, direction="upload", task_id=1, round_index=2)
        error = excinfo.value
        assert isinstance(error, TransportError)
        assert (error.client_id, error.direction) == (4, "upload")
        assert (error.task_id, error.round_index) == (1, 2)
        assert "client_id=4" in str(error)

    def test_clean_frame_passes(self):
        frame = encode_frame("upload", build_codec("identity"), {"w": np.arange(4.0)}, None)
        verify_frame(frame, client_id=0, direction="upload")

    def test_undecodable_frame_raises_decode_error_with_context(self):
        garbage = b"certainly not a pickle"
        frame = WireFrame(
            kind="upload", codec="identity", body=garbage, checksum=zlib.crc32(garbage)
        )
        with pytest.raises(FrameDecodeError) as excinfo:
            decode_frame(
                frame,
                build_codec("identity"),
                None,
                client_id=9,
                direction="upload",
                task_id=0,
                round_index=1,
            )
        assert excinfo.value.client_id == 9
        assert excinfo.value.direction == "upload"
        assert isinstance(excinfo.value, TransportError)


# --------------------------------------------------------------------------- #
# Zero-fault / checkpoint-off inertness
# --------------------------------------------------------------------------- #
class TestZeroFaultParity:
    def test_fault_stats_count_what_the_run_did(self, simulate, tiny_federated_config, tmp_path):
        """A run without faults or checkpoints reports nothing; one that
        checkpoints every round counts each snapshot (a run that moves no
        number with these knobs is ``test_composition.py``'s)."""
        config = replace(tiny_federated_config, rounds_per_task=2)
        _, clean = simulate(config)
        assert clean.fault_stats == {}
        _, written = simulate(replace(config, checkpoint_every=1, checkpoint_dir=str(tmp_path)))
        assert written.fault_stats == {"checkpoints_written": 4, "resumed_from": None}
        assert len(os.listdir(tmp_path)) == 4

    def test_server_restarts_are_lossless_under_delta_codec(
        self, simulate, tiny_federated_config
    ):
        """Restarts wipe delta acks (dense re-broadcasts) but never the numbers."""
        base_cfg = replace(tiny_federated_config, rounds_per_task=2, codec="delta")
        clean_sim, _ = simulate(base_cfg)
        restart_cfg = replace(base_cfg, faults=FaultSpec(server_restart_every=1))
        restart_sim, restarted = simulate(restart_cfg)
        assert restarted.fault_stats["server_restarts"] > 0
        assert any(event["kind"] == "server_restart" for event in restarted.event_log)
        assert simulation_state_hash(clean_sim) == simulation_state_hash(restart_sim)


# --------------------------------------------------------------------------- #
# Fault trajectories are deterministic per seed
# --------------------------------------------------------------------------- #
class TestFaultedRunsAreDeterministic:
    def test_sync_crash_and_corruption_replay_identically(
        self, simulate, tiny_federated_config
    ):
        config = replace(
            tiny_federated_config,
            rounds_per_task=2,
            faults=FaultSpec(client_crash_rate=0.5, upload_corruption_rate=0.4),
            retries=2,
            retry_backoff=0.5,
        )
        first_sim, first = simulate(config)
        second_sim, second = simulate(config)
        assert first.fault_stats["client_crashes"] > 0
        assert any(event["kind"] == "client_crash" for event in first.event_log)
        assert first.event_log == second.event_log
        assert first.fault_stats == second.fault_stats
        assert simulation_state_hash(first_sim) == simulation_state_hash(second_sim)
        assert _matrix_bytes(first_sim) == _matrix_bytes(second_sim)

    @pytest.mark.parametrize("mode", ["async", "buffered"])
    def test_temporal_plane_crash_and_rejoin_events(
        self, simulate, tiny_federated_config, mode
    ):
        config = replace(
            tiny_federated_config,
            rounds_per_task=2,
            mode=mode,
            device_profile="homogeneous",
            faults=FaultSpec(client_crash_rate=0.5),
        )
        first_sim, first = simulate(config)
        kinds = [event["kind"] for event in first.event_log]
        assert "client_crash" in kinds
        assert "client_rejoin" in kinds
        assert first.fault_stats["client_crashes"] == kinds.count("client_crash")
        second_sim, second = simulate(config)
        assert first.event_log == second.event_log
        assert simulation_state_hash(first_sim) == simulation_state_hash(second_sim)


# --------------------------------------------------------------------------- #
# Worker death without the fault plane
# --------------------------------------------------------------------------- #
class TestWorkerDeath:
    def test_dead_worker_raises_typed_error_with_pending_clients(
        self, simulate, tiny_backbone_config, tiny_federated_config
    ):
        config = replace(tiny_federated_config, executor="parallel", num_workers=2)
        method = _WorkerKiller(BaselineConfig(backbone=tiny_backbone_config))
        simulation = simulate(config, method, run=False)
        with pytest.raises(WorkerDiedError) as excinfo:
            simulation.run()
        error = excinfo.value
        assert error.worker_ids
        assert error.exit_codes == [3] * len(error.worker_ids)
        assert error.client_ids  # the chunk's clients are named in the failure
        assert "pending client ids" in str(error)
        # close() is idempotent and safe after the failure (run() already
        # closed once on its error path).
        simulation.close()
        simulation.close()


# --------------------------------------------------------------------------- #
# Checkpoint file format
# --------------------------------------------------------------------------- #
class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / checkpoint_name(1, 2))
        payload = {"hello": np.arange(5.0), "nested": {"a": 1}}
        save_checkpoint(path, payload)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["hello"], payload["hello"])
        assert loaded["nested"] == {"a": 1}
        assert not os.path.exists(path + ".tmp")

    def test_name_encodes_resume_position(self):
        assert parse_checkpoint_name(checkpoint_name(3, 14)) == (3, 14)
        assert parse_checkpoint_name("not-a-checkpoint.bin") is None

    def test_latest_picks_furthest_position(self, tmp_path):
        for position in [(0, 1), (1, 0), (0, 2)]:
            save_checkpoint(str(tmp_path / checkpoint_name(*position)), {"p": position})
        latest = latest_checkpoint(str(tmp_path))
        assert latest is not None and latest.endswith(checkpoint_name(1, 0))
        assert latest_checkpoint(str(tmp_path / "missing")) is None

    @pytest.mark.parametrize(
        "mutation",
        ["truncate", "flip", "magic", "older_version", "frozen_state_version", "pickled_table_version"],
    )
    def test_corruption_is_detected(self, tmp_path, mutation):
        path = str(tmp_path / checkpoint_name(0, 1))
        save_checkpoint(path, {"x": 1})
        raw = bytearray(open(path, "rb").read())
        match = None
        if mutation == "truncate":
            raw = raw[: len(raw) // 2]
        elif mutation == "flip":
            raw[-1] ^= 0xFF
        elif mutation == "magic":
            raw[:4] = b"XXXX"
        elif mutation == "older_version":
            # A well-formed version-2 file (its CRC still holds) is refused by
            # its header: its server entry is a flat array dict and a
            # skeleton, not the model version's identity frame body.
            raw[4:8] = (2).to_bytes(4, "big")
            match = "version 2, expected 5"
        elif mutation == "frozen_state_version":
            # A version-3 file's model state carries the frozen tokenizer,
            # drifted by averaging: refused by its header too.
            raw[4:8] = (3).to_bytes(4, "big")
            match = "version 3, expected 5"
        else:
            # A version-4 file's server entry pickles its table inside the
            # plan: refused by its header, before any frame is decoded.
            raw[4:8] = (4).to_bytes(4, "big")
            match = "version 4, expected 5"
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(CheckpointCorruptionError, match=match):
            load_checkpoint(path)


class TestDurableRetention:
    """A rename is durable only once its directory is fsynced; a prune that
    unlinks older files before that could, after a power loss, keep the
    unlinks and lose the rename — fewer than ``keep`` files, possibly none."""

    @pytest.fixture
    def disk_ops(self, monkeypatch):
        """Every ``os.fsync`` (of a file or a directory), ``os.replace`` and
        ``os.remove``, in call order."""
        ops = []
        real = {name: getattr(os, name) for name in ("fsync", "replace", "remove")}

        def fsync(descriptor):
            ops.append("fsync-dir" if stat.S_ISDIR(os.fstat(descriptor).st_mode) else "fsync")
            real["fsync"](descriptor)

        def recorded(name):
            def call(*args, **kwargs):
                ops.append(name)
                return real[name](*args, **kwargs)

            return call

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", recorded("replace"))
        monkeypatch.setattr(os, "remove", recorded("remove"))
        return ops

    @staticmethod
    def _assert_renames_durable_before_prunes(ops):
        assert "remove" in ops  # retention really pruned something
        for index, op in enumerate(ops):
            if op == "replace":
                assert ops[index - 1] == "fsync" and ops[index + 1] == "fsync-dir", ops

    def test_checkpoint_prune_follows_the_directory_fsync(
        self, simulate, tiny_federated_config, tmp_path, disk_ops
    ):
        config = replace(
            tiny_federated_config,
            rounds_per_task=2,
            checkpoint_every=1,
            checkpoint_keep=1,
            checkpoint_dir=str(tmp_path),
        )
        simulate(config)
        self._assert_renames_durable_before_prunes(disk_ops)
        assert len(os.listdir(tmp_path)) == 1

    def test_registry_prune_follows_the_directory_fsync(self, tmp_path, disk_ops):
        registry = ModelRegistry(str(tmp_path), keep=1)
        for index in range(3):
            registry.publish(name="m", state={"w": np.full(3, float(index))}, round_index=index)
        self._assert_renames_durable_before_prunes(disk_ops)
        assert [info.version for info in registry.list_versions()] == [3]


# --------------------------------------------------------------------------- #
# Checkpoint -> resume equals uninterrupted, across modes
# --------------------------------------------------------------------------- #
class TestCheckpointResume:
    def test_resumes_from_a_ledger_pickled_with_its_retired_fields(
        self, simulate, tiny_federated_config, tmp_path
    ):
        """Ledgers used to carry ``per_round`` (per-record totals) and
        ``measured_rounds`` (always ``rounds``); checkpoints that pickled them
        still resume onto the same bits."""
        full_dir = tmp_path / "full"
        config = replace(
            tiny_federated_config, rounds_per_task=2, checkpoint_every=1, checkpoint_dir=str(full_dir)
        )
        full_sim, full = simulate(config)
        first = sorted(os.listdir(full_dir), key=parse_checkpoint_name)[0]
        payload = load_checkpoint(str(full_dir / first))
        ledger = pickle.loads(payload["ledger_blob"])
        ledger.per_round = [
            {"upload": record.upload_bytes, "broadcast": record.broadcast_bytes}
            for record in ledger.records
        ]
        ledger.measured_rounds = ledger.rounds
        payload["ledger_blob"] = pickle.dumps(ledger, protocol=pickle.HIGHEST_PROTOCOL)
        resume_dir = tmp_path / "resume"
        save_checkpoint(str(resume_dir / first), payload)

        resumed_cfg = replace(config, checkpoint_dir=str(resume_dir), resume=True)
        resumed_sim, resumed = simulate(resumed_cfg)
        assert resumed.fault_stats["resumed_from"] is not None
        assert simulation_state_hash(resumed_sim) == simulation_state_hash(full_sim)
        assert resumed.communication == full.communication
        assert resumed.communication.measured

    @pytest.mark.parametrize("codec", ["quantize8", "delta"])
    def test_checkpoints_hold_downlink_state_only_for_a_codec_that_reads_it(
        self, simulate, tiny_federated_config, tmp_path, codec
    ):
        """Per-client model copies in a checkpoint scale with the fleet; nothing else does."""
        for rounds_per_task in (2, 6):  # N and 3N dispatches per task
            directory = tmp_path / f"{codec}-{rounds_per_task}"
            config = replace(
                tiny_federated_config,
                virtual_clients=True,
                population=2000,
                mode="buffered",
                codec=codec,
                rounds_per_task=rounds_per_task,
                checkpoint_dir=str(directory),
            )
            simulation, result = simulate(config)
            contacted = {e["client_id"] for e in result.event_log if e["kind"] == "dispatch"}
            names = sorted(os.listdir(directory), key=parse_checkpoint_name)
            sizes = [os.path.getsize(directory / name) for name in names]
            acks = simulation.transport.state_dict()["ack"]
            model_bytes = sum(v.nbytes for v in simulation.server.global_state.values())
            assert len(sizes) == 2 and len(contacted) > 2 * rounds_per_task
            if codec == "delta":
                assert sorted(acks) == sorted(contacted)
            else:
                assert acks == {}
                # What is left to grow is the ledger and the event log: a few
                # KB per task, where one retained model copy is ~80 KB.
                assert sizes[-1] - sizes[0] < 8192
                assert sizes[-1] < 3 * model_bytes

    def test_resume_from_empty_directory_starts_fresh(
        self, simulate, tiny_federated_config, tmp_path
    ):
        config = replace(
            tiny_federated_config,
            checkpoint_dir=str(tmp_path / "empty"),
            resume=True,
        )
        plain_sim, _ = simulate(tiny_federated_config)
        fresh_sim, fresh = simulate(config)
        assert fresh.fault_stats.get("resumed_from") is None
        assert simulation_state_hash(plain_sim) == simulation_state_hash(fresh_sim)

    def test_fingerprint_mismatch_refuses_to_resume(
        self, simulate, tiny_federated_config, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        config = replace(tiny_federated_config, checkpoint_dir=directory)
        simulate(config)
        mismatched = replace(config, seed=config.seed + 1, resume=True)
        simulation = simulate(mismatched, run=False)
        with pytest.raises(CheckpointMismatchError):
            simulation.run()

    def test_an_old_envelope_checkpoint_refuses_by_version(
        self, simulate, tiny_federated_config, tmp_path
    ):
        """A version-4 server entry pickles its table inside the plan.  A
        version-4 file is refused by its container header
        (``test_corruption_is_detected``); a payload that claims version 4
        inside a current container is refused by that claim, as a mismatch,
        before ``decode_version`` fails on the body."""
        directory = tmp_path / "ckpt"
        config = replace(tiny_federated_config, checkpoint_dir=str(directory))
        simulate(config)
        path = latest_checkpoint(str(directory))
        payload = load_checkpoint(path)
        state, broadcast_payload = decode_version(payload["server"]["version"])
        arrays, skeleton = flatten_message(state, broadcast_payload, TreePayloadCodec())
        old_body = pickle.dumps(
            (skeleton, IdentityCodec().encode(arrays)), protocol=pickle.HIGHEST_PROTOCOL
        )
        with pytest.raises(FrameDecodeError):
            decode_version(old_body)
        payload["server"]["version"] = old_body
        payload["version"] = 4
        save_checkpoint(path, payload)
        with pytest.raises(CheckpointMismatchError, match="version-4 payload"):
            simulate(replace(config, resume=True))

    def test_a_float64_checkpoint_resumes_only_where_float64_is_stated(
        self, simulate, tiny_federated_config, tmp_path
    ):
        """float64 was the default until float32 replaced it: a checkpoint the
        old default wrote refuses a relaunch that leaves ``dtype`` unstated,
        naming both fingerprints, and resumes bit for bit where it is stated."""
        full_dir = tmp_path / "full"
        written = replace(
            tiny_federated_config,
            dtype="float64",
            rounds_per_task=2,
            checkpoint_every=1,
            checkpoint_dir=str(full_dir),
        )
        full_sim, full = simulate(written)
        first = sorted(os.listdir(full_dir), key=parse_checkpoint_name)[0]
        resume_dir = tmp_path / "resume"
        resume_dir.mkdir()
        shutil.copy(full_dir / first, resume_dir / first)

        relaunch = replace(
            written, dtype=FederatedConfig().dtype, checkpoint_dir=str(resume_dir), resume=True
        )
        with pytest.raises(CheckpointMismatchError) as refusal:
            simulate(relaunch)
        assert config_fingerprint(written) in str(refusal.value)
        assert config_fingerprint(relaunch) in str(refusal.value)

        stated = replace(relaunch, dtype="float64")
        resumed_sim, resumed = simulate(stated)
        assert resumed.fault_stats["resumed_from"] is not None
        assert simulation_state_hash(resumed_sim) == simulation_state_hash(full_sim)
        assert _matrix_bytes(resumed_sim) == _matrix_bytes(full_sim)
        assert resumed.round_losses == full.round_losses

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(checkpoint_every=1)  # needs checkpoint_dir
        with pytest.raises(ValueError):
            FederatedConfig(resume=True)  # needs checkpoint_dir
        with pytest.raises(ValueError):
            FederatedConfig(checkpoint_every=1, checkpoint_dir="x", mode="async")
        with pytest.raises(ValueError):
            FederatedConfig(retries=-1)


# --------------------------------------------------------------------------- #
# kill -9 mid-run, relaunch with resume=True (the acceptance scenario)
# --------------------------------------------------------------------------- #
_KILL_SCRIPT = textwrap.dedent(
    """
    import os, sys

    mode, ckpt_dir = sys.argv[1], sys.argv[2]

    from repro.baselines import build_method
    from repro.continual import DomainIncrementalScenario
    from repro.datasets import SyntheticDomainDataset
    from repro.datasets.registry import get_dataset_spec
    from repro.federated import FederatedDomainIncrementalSimulation, simulation_state_hash
    from repro.federated.client import LocalTrainingConfig
    from repro.federated.config import FederatedConfig
    from repro.federated.increment import ClientIncrementConfig
    from repro.models.backbone import BackboneConfig

    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=24, test_per_domain=12, num_classes=3
    )
    backbone = BackboneConfig(
        image_size=spec.image_size, num_classes=spec.num_classes,
        base_width=4, embed_dim=16, num_heads=2, seed=7,
    )
    config = FederatedConfig(
        increment=ClientIncrementConfig(
            initial_clients=3, increment_per_task=1, transfer_fraction=0.8, seed=7
        ),
        clients_per_round=2,
        rounds_per_task=2,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
        seed=7,
        checkpoint_every=1 if ckpt_dir else 0,
        checkpoint_dir=ckpt_dir,
        resume=bool(ckpt_dir) and mode == "run",
    )
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(spec), num_tasks=2)
    method = build_method("finetune", backbone, num_tasks=scenario.num_tasks)
    sim = FederatedDomainIncrementalSimulation(scenario, method, config)

    if mode == "crash":
        original = sim._write_checkpoint
        written = {"count": 0}

        def dying_write(start_task, start_round):
            original(start_task, start_round)
            written["count"] += 1
            if written["count"] >= 3:
                os.kill(os.getpid(), 9)  # SIGKILL: no cleanup, no excuses

        sim._write_checkpoint = dying_write

    sim.run()
    print("RESUMED", sim._resumed_from)
    print("HASH", simulation_state_hash(sim))
    print("MATRIX", sim.evaluator.accuracy_matrix._matrix.tobytes().hex())
    """
)


def _run_child(script_path, mode, ckpt_dir):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, script_path, mode, ckpt_dir],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _parse_output(stdout):
    values = {}
    for line in stdout.splitlines():
        parts = line.split(" ", 1)
        if len(parts) == 2 and parts[0] in ("RESUMED", "HASH", "MATRIX"):
            values[parts[0]] = parts[1]
    return values


class TestKillAndResume:
    def test_sigkill_then_resume_reproduces_the_run(self, tmp_path):
        script_path = str(tmp_path / "kill_resume_run.py")
        with open(script_path, "w") as handle:
            handle.write(_KILL_SCRIPT)
        ckpt_dir = str(tmp_path / "ckpt")

        crashed = _run_child(script_path, "crash", ckpt_dir)
        assert crashed.returncode == -9, crashed.stderr  # died by SIGKILL mid-run
        assert os.listdir(ckpt_dir)  # checkpoints survived the kill

        resumed = _run_child(script_path, "run", ckpt_dir)
        assert resumed.returncode == 0, resumed.stderr
        resumed_values = _parse_output(resumed.stdout)
        assert resumed_values["RESUMED"] != "None"

        reference = _run_child(script_path, "run", "")
        assert reference.returncode == 0, reference.stderr
        reference_values = _parse_output(reference.stdout)

        assert resumed_values["HASH"] == reference_values["HASH"]
        assert resumed_values["MATRIX"] == reference_values["MATRIX"]
