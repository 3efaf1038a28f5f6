"""Hierarchy plane: virtual client population + tree aggregation.

Covers the two halves of the plane and their cross-layer contracts:

* the lazy sampler (draw-for-draw reference, O(count) semantics),
* the client data plane (bit-for-bit shards against an eager recipe of
  Algorithm 1's assignment, cache sizing and determinism, fleet recipes),
* the tree reduce backend (float-tolerance agreement with flat FedAvg for
  any fan-out and cohort, edge-frame ledger accounting, edge faults),
* the configuration surface (validation, checkpoint fingerprints, run-cache
  folding), and
* full-simulation pins: a schedule-mode run reproduces the hashes the eager
  data path recorded across sync/async/buffered modes, while fleet mode
  trains a 100k-scale population in O(cohort) state.
"""

from __future__ import annotations

import hashlib
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autograd.tensor import get_default_dtype
from repro.baselines import build_method
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.datasets.base import ArrayDataset
from repro.datasets.partition import (
    partition_domain_across_clients,
    partition_indices_for_clients,
)
from repro.federated import (
    CheckpointMismatchError,
    FaultInjector,
    FaultSpec,
    FederatedDomainIncrementalSimulation,
    FlatReduceBackend,
    NoAvailableClientsError,
    ProfileCache,
    TreeReduceBackend,
    VirtualClientPlane,
    build_profile,
    build_reduce_backend,
    config_fingerprint,
    fedavg,
    sample_clients_lazy,
    simulation_state_hash,
    weighted_average_arrays,
)
from repro.federated import communication
from repro.federated.aggregation import _leaf_weights
from repro.federated.communication import (
    CODEC_NAMES,
    CommunicationLedger,
    FrameRecord,
    PackedState,
    TreePayloadCodec,
    build_codec,
    decode_frame,
    encode_frame,
    flatten_message,
    split_message,
)
from repro.federated.config import FederatedConfig
from repro.federated.faults import carry_frame
from repro.federated.increment import ClientGroup
from repro.utils.rng import spawn_rng
from test_fault_plane import _query_all  # the fault plane's fixed query program


# --------------------------------------------------------------------------- #
# Lazy sampling
# --------------------------------------------------------------------------- #
def _reference_lazy_sample(population, count, rng, eligible=None):
    """The documented probe program of ``sample_clients_lazy``, re-derived."""
    selected = set()
    while len(selected) < count:
        candidate = int(rng.integers(population))
        if candidate in selected:
            continue
        if eligible is not None and not eligible(candidate):
            continue
        selected.add(candidate)
    return sorted(selected)


class TestSampleClientsLazy:
    @pytest.mark.parametrize("population,count", [(5, 2), (10, 3), (37, 5), (100, 1)])
    def test_matches_reference_draw_for_draw(self, population, count):
        # Identical generator state in, identical probe sequence out: the
        # sampler is a pure function of the rng — the regression contract the
        # fleet selection trace depends on.
        chosen = sample_clients_lazy(population, count, np.random.default_rng(42))
        expected = _reference_lazy_sample(population, count, np.random.default_rng(42))
        assert chosen == expected

    def test_small_population_golden_draws(self):
        # A pinned golden draw: numpy generator semantics changing under us
        # (or a sampler rewrite changing the probe program) must fail loudly,
        # because every recorded fleet run's cohorts depend on this sequence.
        assert sample_clients_lazy(10, 3, np.random.default_rng(0)) == [5, 6, 8]
        assert sample_clients_lazy(1000, 4, np.random.default_rng(7)) == [625, 684, 897, 944]

    def test_count_reaching_population_returns_filtered_range(self):
        rng = np.random.default_rng(0)
        assert sample_clients_lazy(4, 4, rng) == [0, 1, 2, 3]
        assert sample_clients_lazy(4, 9, rng, exclude={2}) == [0, 1, 3]

    def test_exclude_and_availability_are_honoured(self):
        chosen = sample_clients_lazy(
            50, 5, np.random.default_rng(3), available=lambda cid: cid % 2 == 0, exclude={0, 2}
        )
        assert len(chosen) == 5 and len(set(chosen)) == 5
        assert all(cid % 2 == 0 and cid not in {0, 2} for cid in chosen)

    def test_exhaustion_raises(self):
        probes = []
        with pytest.raises(NoAvailableClientsError, match="1024 probes"):
            sample_clients_lazy(
                100, 3, np.random.default_rng(0), available=lambda cid: probes.append(cid)
            )
        assert len(probes) == 1024  # the bound, max(1024, 64 * count)
        with pytest.raises(NoAvailableClientsError):
            sample_clients_lazy(3, 3, np.random.default_rng(0), exclude={0, 1, 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_clients_lazy(10, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_clients_lazy(0, 1, np.random.default_rng(0))

    @given(population=st.integers(2, 200), count=st.integers(1, 8), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_property_distinct_sorted_in_range(self, population, count, seed):
        chosen = sample_clients_lazy(population, count, np.random.default_rng(seed))
        assert chosen == sorted(set(chosen))
        assert len(chosen) == min(count, population)
        assert all(0 <= cid < population for cid in chosen)


# --------------------------------------------------------------------------- #
# Virtual shards: bit-for-bit with the eager partition
# --------------------------------------------------------------------------- #
class TestVirtualShards:
    @given(seed=st.integers(0, 2**16), concentration=st.sampled_from([0.3, 1.0, 5.0]))
    @settings(
        max_examples=10,
        deadline=None,
        # The spec fixture is a frozen value object; sharing it across
        # generated examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_index_partition_matches_eager_shards(self, tiny_spec, seed, concentration):
        # The index-level half performs the same draws as the eager shard
        # partition, so subset-by-indices reproduces every shard exactly.
        dataset = SyntheticDomainDataset(tiny_spec).train(0)
        clients = [3, 1, 7, 4]
        eager = partition_domain_across_clients(
            dataset, clients, spawn_rng(seed, "partition", 0), concentration
        )
        index_map = partition_indices_for_clients(
            dataset.labels, clients, spawn_rng(seed, "partition", 0), concentration
        )
        assert set(eager) == set(index_map)
        for client_id, indices in index_map.items():
            lazy = dataset.subset(indices)
            np.testing.assert_array_equal(lazy.images, eager[client_id].images)
            np.testing.assert_array_equal(lazy.labels, eager[client_id].labels)

    @given(seed=st.integers(0, 2**16))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_plane_materializes_eager_bits_every_client_every_task(
        self, simulate, tiny_federated_config, seed
    ):
        # The plane against a short eager recipe of Algorithm 1's assignment:
        # partition the domain and let In-between clients concatenate their
        # previous take's shard with the new one (line 17).
        config = replace(tiny_federated_config, seed=seed, rounds_per_task=1)
        sim = simulate(config, num_tasks=3, run=False)
        latest, training, held = {}, {}, {}
        for task in sim.scenario.tasks():
            sim._assign_task_data(task)
            assignment = sim.schedule.assignment_for_task(task.task_id)
            shards = partition_domain_across_clients(
                task.train,
                assignment.clients_taking_new_domain,
                spawn_rng(seed, "partition", task.task_id),
            )
            for client_id in assignment.active_clients:
                group = assignment.group_of(client_id)
                if group is ClientGroup.OLD:
                    continue
                shard = shards[client_id]
                if group is ClientGroup.IN_BETWEEN and client_id in latest:
                    training[client_id] = ArrayDataset.concatenate((latest[client_id], shard))
                    held[client_id].append(task.task_id)
                else:
                    training[client_id] = shard
                    held[client_id] = [task.task_id]
                latest[client_id] = shard
            eligible = [cid for cid in assignment.active_clients if cid in training]
            assert sim.eligible_clients(task) == eligible
            for client_id in eligible:
                lazy_shard = sim.virtual.materialize(client_id)
                np.testing.assert_array_equal(lazy_shard.images, training[client_id].images)
                np.testing.assert_array_equal(lazy_shard.labels, training[client_id].labels)
                assert sim.virtual.domains_for(client_id) == tuple(held[client_id])

    def test_schedule_cache_builds_each_shard_once_per_task(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, monkeypatch
    ):
        # 40 eligible clients is more than the fleet-mode bound of 16; cycling
        # through them must still build every (client, component) shard at
        # most once per task — the cache holds the whole eligible set.
        spec = replace(tiny_spec, train_per_domain=160)
        config = replace(
            tiny_federated_config,
            increment=replace(tiny_federated_config.increment, initial_clients=40),
            rounds_per_task=30,
        )
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(spec), num_tasks=2)
        method = build_method("finetune", tiny_backbone_config, num_tasks=2)
        sim = FederatedDomainIncrementalSimulation(scenario, method, config)
        plane = sim.virtual
        builds = []
        single_shard = plane._single_shard

        def counting(task_id, client_id):
            builds.append((plane._current_task, client_id, task_id))
            return single_shard(task_id, client_id)

        monkeypatch.setattr(plane, "_single_shard", counting)
        sim.run()
        for task_id in (0, 1):
            selected = {
                client_id
                for entry in sim.event_log
                if entry["task_id"] == task_id
                for client_id in entry["clients"]
            }
            assert len(selected) > 16  # more than a 16-shard LRU could hold
        assert len(builds) == len(set(builds))
        assert len(plane._cache) <= len(plane.eligible())

    def test_materialization_is_deterministic_across_eviction(self, tiny_spec):
        config = FederatedConfig(virtual_clients=True, population=64, clients_per_round=2)
        plane = VirtualClientPlane(config)
        plane._cache_size = 1  # force eviction between the two materializations
        task_train = SyntheticDomainDataset(tiny_spec).train(0)

        class _Task:
            task_id = 0
            train = task_train

        plane.begin_task(_Task(), None)
        first = plane.materialize(5)
        plane.materialize(9)  # evicts client 5
        again = plane.materialize(5)
        np.testing.assert_array_equal(first.images, again.images)
        np.testing.assert_array_equal(first.labels, again.labels)
        assert first.images.dtype == get_default_dtype()

    def test_fleet_spec_and_groups(self, tiny_spec):
        config = FederatedConfig(virtual_clients=True, population=1000)
        plane = VirtualClientPlane(config)
        dataset = SyntheticDomainDataset(tiny_spec)

        class _Task:
            def __init__(self, task_id, train):
                self.task_id = task_id
                self.train = train

        plane.begin_task(_Task(0, dataset.train(0)), None)
        assert plane.group_for(123) is ClientGroup.NEW
        assert plane.domains_for(123) == (0,)

        plane.begin_task(_Task(1, dataset.train(1)), None)
        assert plane.group_for(123) is ClientGroup.IN_BETWEEN
        assert plane.domains_for(123) == (0, 1)
        # The fleet shard is a pure function of (seed, task, client): two
        # builds agree bit-for-bit, different clients genuinely differ.
        a = plane.materialize(123)
        plane._cache.clear()
        b = plane.materialize(123)
        np.testing.assert_array_equal(a.images, b.images)
        other = plane.materialize(124)
        assert len(other) >= 2
        assert a.images.shape != other.images.shape or not np.array_equal(a.images, other.images)

    def test_schedule_mode_unknown_client_raises(self, tiny_spec):
        plane = VirtualClientPlane(FederatedConfig())
        with pytest.raises(KeyError):
            plane.materialize(99)


# --------------------------------------------------------------------------- #
# Tree reduce == flat FedAvg (to accumulation-dtype tolerance)
# --------------------------------------------------------------------------- #
def _random_states(rng, cohort, keys=("w", "b"), dtype=np.float64):
    states = []
    for _ in range(cohort):
        states.append(
            {key: rng.normal(size=(3, 2)).astype(dtype) for key in keys}
        )
    return states


class _PerKeyTreeReduce(TreeReduceBackend):
    """The per-key tree reduce the streamed column reduce replaced, kept
    verbatim as the reference it must match bit for bit."""

    def reduce(self, state_dicts, num_samples, scale=None, coordinate=0):
        weights = _leaf_weights(state_dicts, num_samples, scale)
        keys = list(state_dicts[0])
        accum_dtypes = {}
        for key in keys:
            first = np.asarray(state_dicts[0][key])
            accum_dtypes[key] = first.dtype if first.dtype.kind == "f" else np.dtype(np.float64)
        # Leaves: every update becomes a (weight, weighted-arrays) node.
        nodes = [
            (
                weight,
                {
                    key: accum_dtypes[key].type(weight) * np.asarray(state[key])
                    for key in keys
                },
            )
            for state, weight in zip(state_dicts, weights)
        ]
        records = []
        self.last_edge_frames = 0
        level = 0
        while len(nodes) > 1:
            level += 1
            groups = [nodes[i : i + self.fanout] for i in range(0, len(nodes), self.fanout)]
            if len(groups) == 1:
                nodes = [self._combine(groups[0], keys)]
                break
            next_nodes = []
            for node_index, group in enumerate(groups):
                weight, arrays = self._combine(group, keys)
                arrays, weight = self._ship(
                    arrays, weight, coordinate, level, node_index, records
                )
                next_nodes.append((weight, arrays))
            nodes = next_nodes
        if self.ledger is not None and records:
            self.ledger.record_edge_reduce(records)
        total, summed = nodes[0]
        return {
            key: summed[key] / accum_dtypes[key].type(total) for key in keys
        }

    @staticmethod
    def _combine(group, keys):
        weight = sum(w for w, _ in group)
        arrays = {key: group[0][1][key].copy() for key in keys}
        for _, child in group[1:]:
            for key in keys:
                arrays[key] += child[key]
        return weight, arrays

    def _ship(self, arrays, weight, coordinate, level, node_index, records):
        """One edge→parent hop: encode, carry over the faulty wire, decode."""
        meta = {"weight": float(weight), "level": level, "node": node_index}
        frame = encode_frame("edge", self.codec, arrays, meta)
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
            return arrays, weight
        records.append(FrameRecord(node_index, frame.num_bytes))
        self.last_edge_frames += 1
        decoded, received_meta = decode_frame(
            frame, self.codec, direction="edge", round_index=(coordinate, level, node_index)
        )
        return decoded, float(received_meta["weight"])


_KEY_SHAPES = ((), (0,), (1,), (5,), (2, 3), (3, 0))


@st.composite
def weighted_cohorts(draw):
    """1-17 updates over float32 / float64 / int64 keys (zero-size ones
    included), their sample counts and optionally FedAvg scale factors."""
    size = draw(st.integers(1, 17))
    layout = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("float32", "float64", "int64")), st.sampled_from(_KEY_SHAPES)
            ),
            min_size=1,
            max_size=4,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    states = []
    for _ in range(size):
        state = {}
        for index, (dtype, shape) in enumerate(layout):
            if dtype == "int64":
                state[f"k{index}"] = rng.integers(-1000, 1000, size=shape)
            else:
                state[f"k{index}"] = (rng.standard_normal(shape) * 10.0).astype(dtype)
        states.append(state)
    num_samples = draw(st.lists(st.integers(0, 64), min_size=size, max_size=size))
    scale = draw(
        st.none()
        | st.lists(st.just(0.0) | st.floats(0.01, 2.0), min_size=size, max_size=size)
    )
    return states, num_samples, scale


class TestTreeReduce:
    @given(
        cohort=st.integers(1, 12),
        fanout=st.integers(2, 6),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=50, deadline=None)
    def test_tree_equals_flat_any_fanout_and_cohort(self, cohort, fanout, seed):
        rng = np.random.default_rng(seed)
        states = _random_states(rng, cohort)
        num_samples = [int(n) for n in rng.integers(1, 50, size=cohort)]
        flat = fedavg(states, num_samples)
        tree = TreeReduceBackend(fanout=fanout).reduce(states, num_samples)
        for key in flat:
            # Flat normalizes weights before accumulating; the tree sums
            # w_i * x_i partials and divides once at the root.  Algebraically
            # identical, equal to accumulation-dtype round-off only.
            np.testing.assert_allclose(tree[key], flat[key], rtol=1e-12, atol=1e-12)

    def test_float32_tolerance(self):
        rng = np.random.default_rng(0)
        states = _random_states(rng, 7, dtype=np.float32)
        num_samples = [5, 1, 9, 3, 2, 8, 4]
        flat = fedavg(states, num_samples)
        tree = TreeReduceBackend(fanout=3).reduce(states, num_samples)
        for key in flat:
            assert tree[key].dtype == flat[key].dtype == np.float32
            np.testing.assert_allclose(tree[key], flat[key], rtol=1e-6, atol=1e-6)

    def test_scale_and_zero_weight_fallback(self):
        rng = np.random.default_rng(1)
        states = _random_states(rng, 4)
        scale = [0.5, 1.0, 0.25, 0.75]
        flat = fedavg(states, [3, 4, 5, 6], scale=scale)
        tree = TreeReduceBackend(fanout=2).reduce(states, [3, 4, 5, 6], scale=scale)
        for key in flat:
            np.testing.assert_allclose(tree[key], flat[key], rtol=1e-12, atol=1e-12)
        # All-zero sample counts fall back to uniform weights, like fedavg.
        flat0 = fedavg(states, [0, 0, 0, 0])
        tree0 = TreeReduceBackend(fanout=2).reduce(states, [0, 0, 0, 0])
        for key in flat0:
            np.testing.assert_allclose(tree0[key], flat0[key], rtol=1e-12, atol=1e-12)

    def test_flat_backend_is_fedavg_bit_for_bit(self):
        rng = np.random.default_rng(2)
        states = _random_states(rng, 3)
        result = FlatReduceBackend().reduce(states, [1, 2, 3])
        expected = fedavg(states, [1, 2, 3])
        for key in expected:
            np.testing.assert_array_equal(result[key], expected[key])

    def test_build_reduce_backend(self):
        assert isinstance(build_reduce_backend("flat"), FlatReduceBackend)
        tree = build_reduce_backend("tree", fanout=4)
        assert isinstance(tree, TreeReduceBackend) and tree.fanout == 4
        with pytest.raises(ValueError):
            build_reduce_backend("ring")
        with pytest.raises(ValueError):
            TreeReduceBackend(fanout=1)

    def test_edge_frame_accounting(self):
        rng = np.random.default_rng(3)
        ledger = CommunicationLedger()
        tree = TreeReduceBackend(fanout=2, codec=build_codec("identity"), ledger=ledger)
        states = _random_states(rng, 5)
        tree.reduce(states, [1, 2, 3, 4, 5])
        # 5 leaves, fanout 2: level 1 ships ceil(5/2)=3 partials, level 2
        # ships 2, level 3 is the single root group (combined in-process,
        # no frame above the root).
        assert ledger.edge_frames == 5
        assert tree.last_edge_frames == 5
        assert ledger.edge_bytes > 0
        assert ledger.total_bytes == ledger.edge_bytes  # nothing else recorded

    def test_cohort_within_fanout_ships_zero_frames(self):
        rng = np.random.default_rng(4)
        ledger = CommunicationLedger()
        tree = TreeReduceBackend(fanout=4, codec=build_codec("identity"), ledger=ledger)
        states = _random_states(rng, 3)
        result = tree.reduce(states, [1, 2, 3])
        assert ledger.edge_frames == 0 and ledger.edge_bytes == 0
        expected = fedavg(states, [1, 2, 3])
        for key in expected:
            np.testing.assert_allclose(result[key], expected[key], rtol=1e-12, atol=1e-12)

    def test_edge_faults_retry_and_stay_exact(self):
        rng = np.random.default_rng(5)
        ledger = CommunicationLedger()
        injector = FaultInjector(seed=0, spec=FaultSpec(upload_loss_rate=0.6))
        tree = TreeReduceBackend(
            fanout=2,
            codec=build_codec("identity"),
            ledger=ledger,
            faults=injector,
            retries=2,
            retry_backoff=0.5,
        )
        states = _random_states(rng, 6)
        num_samples = [1, 2, 3, 4, 5, 6]
        result = tree.reduce(states, num_samples, coordinate=0)
        # Lost edge frames are retried (and, when exhausted, delivered over
        # the reliable control channel), so aggregation stays exact even at a
        # 60% per-attempt loss rate.
        expected = fedavg(states, num_samples)
        for key in expected:
            np.testing.assert_allclose(result[key], expected[key], rtol=1e-12, atol=1e-12)
        assert ledger.edge_lost_frames > 0
        assert injector.counters["frames_lost"] == ledger.edge_lost_frames
        penalty = tree.collect_penalty()
        assert penalty > 0.0
        assert tree.collect_penalty() == 0.0  # collect resets

    def test_exhausted_edge_hop_backs_off_between_attempts_only(self):
        """``retry_backoff`` waits sit *between* attempts — the upload rule, on
        edge hops too: three failures at 0.5 s accrue 0.5 + 1.0, not 3.5."""
        ledger = CommunicationLedger()
        tree = TreeReduceBackend(
            fanout=2,
            codec=build_codec("identity"),
            ledger=ledger,
            faults=FaultInjector(seed=0, spec=FaultSpec(upload_loss_rate=1.0)),
            retries=2,
            retry_backoff=0.5,
        )
        states = _random_states(np.random.default_rng(6), 4)
        result = tree.reduce(states, [1, 2, 3, 4])
        expected = fedavg(states, [1, 2, 3, 4])
        for key in expected:
            np.testing.assert_allclose(result[key], expected[key], rtol=1e-12, atol=1e-12)
        # 4 leaves, fanout 2: two edge hops, each out of retries.
        assert (ledger.edge_lost_frames, ledger.edge_frames) == (6, 0)
        assert tree.collect_penalty() == 2 * 1.5

    def test_edge_fault_draws_are_deterministic(self):
        spec = FaultSpec(upload_loss_rate=0.5, upload_corruption_rate=0.5)
        hops = [(c, level, node) for c in range(4) for level in (1, 2) for node in range(3)]
        trace = _query_all(FaultInjector(seed=9, spec=spec), hops)
        assert trace == _query_all(FaultInjector(seed=9, spec=spec), hops)
        assert {"edge_frame_lost", "edge_frame_corrupt"} <= {entry["kind"] for entry in trace}

    @given(
        cohort=weighted_cohorts(),
        fanout=st.integers(2, 6),
        codec=st.sampled_from(("identity", "quantize8")),
        faulty=st.booleans(),
    )
    # The loaded profile's count: 1,000 under CI's deep sweep.
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tree_matches_the_per_key_reference_bit_for_bit(self, cohort, fanout, codec, faulty):
        states, num_samples, scale = cohort
        runs = []
        for backend in (TreeReduceBackend, _PerKeyTreeReduce):
            spec = FaultSpec(upload_loss_rate=0.3, upload_corruption_rate=0.3)
            ledger = CommunicationLedger()
            tree = backend(
                fanout=fanout,
                codec=build_codec(codec),
                ledger=ledger,
                faults=FaultInjector(seed=1, spec=spec) if faulty else None,
            )
            result = tree.reduce(states, num_samples, scale=scale, coordinate=3)
            counts = (
                ledger.edge_bytes,
                ledger.edge_frames,
                ledger.edge_lost_frames,
                ledger.edge_corrupt_frames,
            )
            runs.append((result, counts, tree.last_edge_frames, tree.collect_penalty()))
        (result, *accounting), (expected, *expected_accounting) = runs
        assert list(result) == list(expected)
        for key in expected:
            assert result[key].dtype == expected[key].dtype, key
            assert result[key].shape == expected[key].shape, key
            assert result[key].tobytes() == expected[key].tobytes(), key
        assert accounting == expected_accounting

    @pytest.mark.parametrize("fanout", [2, 4])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_mismatched_shapes_raise_before_anything_ships(self, fanout, position):
        """One update of three holds ``w`` as ``(1,)``: the flat path refuses
        it, and so must the tree — not broadcast it into a wrong average."""
        rng = np.random.default_rng(8)
        states = [{"w": rng.normal(size=4), "b": rng.normal(size=2)} for _ in range(3)]
        states[position]["w"] = rng.normal(size=1)
        with pytest.raises(ValueError, match="shape mismatch in aggregation"):
            fedavg(states, [1, 2, 3])
        ledger = CommunicationLedger()
        tree = TreeReduceBackend(fanout=fanout, codec=build_codec("identity"), ledger=ledger)
        with pytest.raises(ValueError, match="shape mismatch in aggregation"):
            tree.reduce(states, [1, 2, 3])
        assert (ledger.edge_bytes, ledger.edge_frames, tree.last_edge_frames) == (0, 0, 0)

    def test_mismatched_dtypes_raise_before_anything_ships(self):
        rng = np.random.default_rng(9)
        states = [{"w": rng.normal(size=4)} for _ in range(3)]
        states[2]["w"] = states[2]["w"].astype(np.float32)
        ledger = CommunicationLedger()
        tree = TreeReduceBackend(fanout=2, codec=build_codec("identity"), ledger=ledger)
        with pytest.raises(ValueError, match="dtype mismatch in aggregation"):
            tree.reduce(states, [1, 2, 3])
        assert (ledger.edge_bytes, ledger.edge_frames) == (0, 0)

    def test_streamed_reduce_holds_a_few_leaves_at_once(self):
        """Leaves are packed as their group consumes them: at fan-out 4, 32
        leaves peak at about 12 leaf-sizes (43 when every weighted leaf was
        materialized up front)."""
        rng = np.random.default_rng(10)
        states = [{f"w{i}": rng.standard_normal(4096) for i in range(8)} for _ in range(32)]
        leaf_bytes = sum(value.nbytes for value in states[0].values())
        tree = TreeReduceBackend(fanout=4)
        tracemalloc.start()
        try:
            tree.reduce(states, list(range(1, 33)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * leaf_bytes, f"peak {peak / leaf_bytes:.1f} leaf-sizes"


# --------------------------------------------------------------------------- #
# Decoded uploads stay packed from the wire to FedAvg
# --------------------------------------------------------------------------- #
def _per_key_fedavg(state_dicts, num_samples, scale=None):
    """The per-key FedAvg the column reduce replaced, kept as its oracle."""
    weights = _leaf_weights(state_dicts, num_samples, scale)
    return {
        key: weighted_average_arrays([state[key] for state in state_dicts], weights)
        for key in state_dicts[0]
    }


def _per_array_decode(codec, frame, reference):
    """A frame decoded to a dict as the per-array diff decoder did, before
    ``decode_packed`` filled one column per dtype (the other codecs' ``decode``
    unpacks their packed decode, as it always did)."""
    meta, blob, columns = pickle.loads(frame.body)
    table = communication._table_of(blob)
    if not isinstance(codec, communication._DiffCodec):
        return codec.decode((table, columns), reference), meta
    reader = communication._ColumnReader(columns)
    arrays = {}
    for (name, dtype, shape), count in zip(table, reader.take("counts", len(table)).tolist()):
        if count < 0:
            arrays[name] = reader.take(dtype, int(np.prod(shape))).reshape(shape)
            continue
        flat = np.array(reference[name], copy=True).reshape(-1)
        flat[reader.take("indices", count)] = reader.take(dtype, count)
        arrays[name] = flat.reshape(shape)
    reader.finish()
    return arrays, meta


def _per_key_split(arrays, skeleton, payload_codec):
    """``split_message`` as it was: a per-key state dict and copied-out payload."""
    state = {key[3:]: value for key, value in arrays.items() if key.startswith("s::")}
    payload = {key[3:]: np.array(value) for key, value in arrays.items() if key.startswith("p::")}
    return state, payload_codec.unflatten(payload, skeleton)


def _assert_same_arrays(left, right):
    assert list(left) == list(right)
    for key in left:
        a, b = np.asarray(left[key]), np.asarray(right[key])
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key


@st.composite
def upload_cohorts(draw):
    """1-9 uploads of one float32 or float64 table (optionally with an int64
    key), each a few positions away from the broadcast the receiver holds, with
    a RefFiL-shaped payload, their sample counts and optional scale factors."""
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    shapes = draw(st.lists(st.sampled_from(_KEY_SHAPES), min_size=1, max_size=4))
    counter = draw(st.booleans())
    size = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def nudged(value):
        value = value.copy()
        changed = rng.random(value.shape) < 0.3
        value[changed] = np.asarray(rng.standard_normal(value.shape) * 10.0, value.dtype)[changed]
        return value

    broadcast = {
        f"k{i}": np.asarray(rng.standard_normal(shape) * 10.0, dtype=dtype)
        for i, shape in enumerate(shapes)
    }
    if counter:
        broadcast["steps"] = rng.integers(-1000, 1000, size=(3,))
    groups = draw(st.integers(0, 3))
    uploads = []
    for _ in range(size):
        payload = {
            "prompt_groups": {
                "labels": rng.integers(0, 10, size=groups),
                "vectors": rng.standard_normal((groups, 4)).astype(dtype),
            }
        }
        uploads.append(({key: nudged(value) for key, value in broadcast.items()}, payload))
    num_samples = draw(st.lists(st.integers(0, 64), min_size=size, max_size=size))
    scale = draw(
        st.none() | st.lists(st.just(0.0) | st.floats(0.01, 2.0), min_size=size, max_size=size)
    )
    return broadcast, uploads, num_samples, scale


class TestPackedUploads:
    @given(
        cohort=upload_cohorts(),
        codec_name=st.sampled_from(CODEC_NAMES),
        backend=st.sampled_from(("flat", "tree")),
        fanout=st.integers(2, 4),
    )
    # The loaded profile's count: 1,000 under CI's deep sweep.
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_packed_uploads_aggregate_as_the_per_key_dict_path_bit_for_bit(
        self, cohort, codec_name, backend, fanout
    ):
        broadcast, uploads, num_samples, scale = cohort
        codec, payload_codec = build_codec(codec_name), TreePayloadCodec()
        reference, _ = flatten_message(broadcast, {}, payload_codec)
        packed_states, dict_states = [], []
        for state, payload in uploads:
            arrays, skeleton = flatten_message(state, payload, payload_codec)
            frame = encode_frame("upload", codec, arrays, skeleton, reference)
            message, meta = decode_frame(frame, codec, reference, packed=True)
            arrays, _ = _per_array_decode(codec, frame, reference)
            # The packed decode is the per-array decode packed, byte for byte.
            table, columns = communication._pack(arrays)
            assert list(message.table) == list(table)
            _assert_same_arrays(message.columns, columns)
            # The state mapping holds the keys and values the per-key split
            # did, as views of the decoded columns; the payload is the same.
            packed, rebuilt = split_message(message, meta, payload_codec)
            state_dict, expected_payload = _per_key_split(arrays, meta, payload_codec)
            assert isinstance(packed, PackedState) and len(packed) == len(state_dict)
            _assert_same_arrays(packed, state_dict)
            for name, dtype, _ in packed.message.table:
                assert packed[name].size == 0 or np.shares_memory(packed[name], message.columns[dtype])
            _assert_same_arrays(packed, pickle.loads(pickle.dumps(packed)))
            for part in ("labels", "vectors"):
                _assert_same_arrays(
                    {part: rebuilt["prompt_groups"][part]},
                    {part: expected_payload["prompt_groups"][part]},
                )
            packed_states.append(packed)
            dict_states.append(state_dict)
        if backend == "flat":
            result = FlatReduceBackend().reduce(packed_states, num_samples, scale)
            expected = _per_key_fedavg(dict_states, num_samples, scale)
        else:
            trees = [
                cls(fanout=fanout, codec=build_codec(codec_name), ledger=CommunicationLedger())
                for cls in (TreeReduceBackend, _PerKeyTreeReduce)
            ]
            result = trees[0].reduce(packed_states, num_samples, scale, coordinate=1)
            expected = trees[1].reduce(dict_states, num_samples, scale, coordinate=1)
            assert trees[0].ledger.edge_bytes == trees[1].ledger.edge_bytes
        _assert_same_arrays(result, expected)


# --------------------------------------------------------------------------- #
# Profile cache
# --------------------------------------------------------------------------- #
class TestProfileCache:
    def test_matches_build_profile_and_bounds_memory(self):
        cache = ProfileCache("moderate", seed=3, maxsize=8)
        for client_id in range(32):
            assert cache.get(client_id) == build_profile("moderate", 3, client_id)
        assert len(cache) <= 8
        # Re-fetch after eviction: identical bits (pure function of the seed).
        assert cache.get(0) == build_profile("moderate", 3, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProfileCache("instant", seed=0, maxsize=0)


# --------------------------------------------------------------------------- #
# Configuration surface
# --------------------------------------------------------------------------- #
class TestHierarchyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(population=-1)
        with pytest.raises(ValueError):
            FederatedConfig(population=10)  # needs virtual_clients
        with pytest.raises(ValueError):
            FederatedConfig(reduce_backend="ring")
        with pytest.raises(ValueError):
            FederatedConfig(tree_fanout=1)
        # The valid combinations construct fine.
        FederatedConfig(virtual_clients=True, population=100_000)
        FederatedConfig(reduce_backend="tree", tree_fanout=8)

    def test_fingerprint_covers_hierarchy_knobs(self):
        base = FederatedConfig()
        assert config_fingerprint(base) != config_fingerprint(replace(base, virtual_clients=True))
        assert config_fingerprint(base) != config_fingerprint(replace(base, tree_fanout=3))
        assert config_fingerprint(base) != config_fingerprint(
            replace(base, reduce_backend="tree")
        )
        assert config_fingerprint(base) != config_fingerprint(
            replace(base, virtual_clients=True, population=10)
        )

    def test_run_cache_folds_inert_hierarchy_knobs(self):
        from repro.experiments.runner import _normalize_execution_knobs

        base = FederatedConfig()
        # virtual_clients without a population is read by nothing.
        assert _normalize_execution_knobs(replace(base, virtual_clients=True)) == (
            _normalize_execution_knobs(base)
        )
        # The fanout is never consulted under a flat reduce.
        assert _normalize_execution_knobs(replace(base, tree_fanout=5)) == (
            _normalize_execution_knobs(base)
        )
        # The tree backend changes the numbers (float tolerance) and stays.
        assert _normalize_execution_knobs(replace(base, reduce_backend="tree")) != (
            _normalize_execution_knobs(base)
        )
        # A fleet population changes the cohorts outright and stays.
        assert _normalize_execution_knobs(
            replace(base, virtual_clients=True, population=100)
        ) != _normalize_execution_knobs(replace(base, virtual_clients=True))
        # Under a tree reduce the fanout changes the frame topology and stays.
        assert _normalize_execution_knobs(
            replace(base, reduce_backend="tree", tree_fanout=5)
        ) != _normalize_execution_knobs(replace(base, reduce_backend="tree"))


# --------------------------------------------------------------------------- #
# Full-simulation parity and fleet runs
# --------------------------------------------------------------------------- #
#: ``simulation_state_hash`` and event-log digest of a two-task, two-round
#: finetune run per dtype and mode.  The float64 pairs were recorded from the
#: eager shard-dict data path before the client data plane replaced it; the
#: float32 pairs from the client data plane when float32 became the default.
#: The state hashes moved (event logs did not) when the frozen tokenizer left
#: the model's state, to the values the earlier code gives with its frozen
#: entries held at their initial values, and again (event logs still did not)
#: for a new summation order of the conv weight gradient and the batch-norm
#: statistics, and when the transformer block came to compute the [CLS] row
#: only.
_EAGER_RUN_PINS = {
    ("float64", "sync"): (
        "f57573234a91f752287d3be2b6c49ddc425b5cbcba5a2e020178e03401907a20",
        "232cc8b907ab48f4104a8536d47ea2d761b255d6782a6d27fd05a3c91c93a675",
    ),
    ("float64", "async"): (
        "60e4175ae7d9813dda6e3170f9161dd8018bdbf902d8847d321a6e7e4d632fe1",
        "1921f21569f7cbbe06a12f4791f7bc2e713dd3c24f2d81e5b4886d46f5dc64fa",
    ),
    ("float64", "buffered"): (
        "f38513f7c4ec93d127aeb9d1dcc8c8f30a7a57c7735337703b75a402f0b6fe5f",
        "a754b25108fd2bcb93d9b7d6e04156b7986ccfed5714ab8efdb4919d6dec1dad",
    ),
    ("float32", "sync"): (
        "df62bbfeb0f5bfd2e80418eba765b6c40689d807324af7f8c3dbca1974c95db4",
        "232cc8b907ab48f4104a8536d47ea2d761b255d6782a6d27fd05a3c91c93a675",
    ),
    ("float32", "async"): (
        "c08f7844d10a2c590c357de1d6fc817c14e7f3dd516027512ceedf51e6c9e9e5",
        "1921f21569f7cbbe06a12f4791f7bc2e713dd3c24f2d81e5b4886d46f5dc64fa",
    ),
    ("float32", "buffered"): (
        "7b8c9d67c4713d11496e1044459ce9d524dd06f75535e700ec3c8bde23e7d376",
        "a754b25108fd2bcb93d9b7d6e04156b7986ccfed5714ab8efdb4919d6dec1dad",
    ),
}


#: ``simulation_state_hash`` and ledger bytes of the tree x quantize8 x
#: frame-faults run per compute dtype.  quantize8 rounds to 256 levels, so a
#: new summation order moves an entry whose last-bit change crosses a level
#: boundary by a whole level.  The bytes were 465,762 / 467,205 while every
#: frame pickled its table.
_TREE_QUANTIZE8_PINS = {
    "float64": ("542033c5eb099cdf38bebe85a165bfdeae1d806fd7e20960118ef5f0daa41edd", 319509),
    "float32": ("07dd9a6b73ec21605c55edda0aaf2d43cb3eabda43895a33ce710a975c0d9b4f", 320835),
}


def _event_log_digest(event_log):
    payload = repr([sorted((key, repr(value)) for key, value in event.items()) for event in event_log])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestSimulationParity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", ["sync", "async", "buffered"])
    def test_virtual_run_reproduces_eager_run(
        self, simulate, tiny_federated_config, mode, dtype
    ):
        config = replace(tiny_federated_config, mode=mode, rounds_per_task=2, dtype=dtype)
        sim, result = simulate(config)
        assert (simulation_state_hash(sim), _event_log_digest(result.event_log)) == (
            _EAGER_RUN_PINS[dtype, mode]
        )

    def test_tree_run_matches_flat_within_tolerance(
        self, simulate, tiny_federated_config
    ):
        # A cohort of 3 with fanout 2 genuinely ships edge frames (a cohort
        # within the fanout degenerates to an in-process root reduce).
        config = replace(tiny_federated_config, clients_per_round=3, rounds_per_task=2)
        _, flat = simulate(config)
        tree_sim, tree = simulate(replace(config, reduce_backend="tree", tree_fanout=2))
        np.testing.assert_allclose(
            np.asarray(tree.metrics.matrix),
            np.asarray(flat.metrics.matrix),
            rtol=1e-6,
            atol=1e-6,
        )
        assert tree.communication.edge_frames > 0
        assert tree.communication.edge_bytes > 0
        assert isinstance(tree_sim.server.reduce_backend, TreeReduceBackend)

    @pytest.mark.parametrize("dtype", list(_TREE_QUANTIZE8_PINS))
    def test_tree_quantize8_run_under_frame_faults_is_pinned(
        self, simulate, tiny_federated_config, dtype
    ):
        """Uploads and edge partials both through quantize8, both lost and
        corrupted in transit: the state and every byte on the wire are pinned."""
        config = replace(
            tiny_federated_config,
            dtype=dtype,
            clients_per_round=3,
            rounds_per_task=2,
            reduce_backend="tree",
            tree_fanout=2,
            codec="quantize8",
            faults=FaultSpec(upload_loss_rate=0.3, upload_corruption_rate=0.3),
        )
        sim, result = simulate(config)
        ledger = result.communication
        assert ledger.edge_lost_frames > 0 and ledger.edge_corrupt_frames > 0
        assert (simulation_state_hash(sim), ledger.total_bytes) == _TREE_QUANTIZE8_PINS[dtype]

    def test_fleet_population_trains(self, simulate, tiny_federated_config):
        config = replace(
            tiny_federated_config,
            virtual_clients=True,
            population=5000,
            rounds_per_task=2,
            reduce_backend="tree",
            tree_fanout=2,
        )
        sim, result = simulate(config)
        matrix = np.asarray(result.metrics.matrix)
        assert np.isfinite(matrix[np.tril_indices_from(matrix)]).all()
        # O(cohort) state: nothing population-sized was ever materialized.
        assert len(sim.virtual._cache) <= sim.virtual._cache_size
        # Selected ids actually span the population, not a small prefix.
        dispatched = {
            client_id
            for entry in result.event_log
            for client_id in entry.get("clients", ())
        }
        assert max(dispatched) >= 1000

    @pytest.mark.parametrize("mode", ["async", "buffered"])
    def test_fleet_population_temporal_modes(
        self, simulate, tiny_federated_config, mode
    ):
        config = replace(
            tiny_federated_config,
            virtual_clients=True,
            population=2000,
            mode=mode,
            device_profile="moderate",
            rounds_per_task=2,
        )
        _, result = simulate(config)
        matrix = np.asarray(result.metrics.matrix)
        assert np.isfinite(matrix[np.tril_indices_from(matrix)]).all()


class TestVirtualResume:
    def test_resume_refuses_mismatched_tree_fanout(
        self, simulate, tiny_federated_config, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        config = replace(
            tiny_federated_config,
            virtual_clients=True,
            population=500,
            reduce_backend="tree",
            tree_fanout=2,
            checkpoint_every=1,
            checkpoint_dir=directory,
        )
        simulate(config)
        mismatched = replace(config, tree_fanout=3, resume=True)
        simulation = simulate(mismatched, run=False)
        with pytest.raises(CheckpointMismatchError):
            simulation.run()
