"""Tests for the non-iid partitioner and the FINCH clustering substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import finch, first_neighbor_adjacency
from repro.clustering.finch import _connected_components
from repro.datasets.base import ArrayDataset
from repro.datasets.partition import partition_domain_across_clients, quantity_shift_partition


def _labels(num_classes: int, per_class: int) -> np.ndarray:
    return np.tile(np.arange(num_classes), per_class)


class TestQuantityShiftPartition:
    def test_partitions_cover_all_samples_exactly_once(self):
        labels = _labels(4, 25)
        parts = quantity_shift_partition(labels, 5, np.random.default_rng(0))
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(len(labels)))

    def test_every_client_gets_minimum(self):
        labels = _labels(3, 10)
        parts = quantity_shift_partition(labels, 6, np.random.default_rng(1), min_per_client=3)
        assert all(len(p) >= 3 for p in parts)

    def test_quantity_shift_is_present(self):
        labels = _labels(5, 100)
        parts = quantity_shift_partition(labels, 8, np.random.default_rng(2), concentration=0.4)
        sizes = np.array([len(p) for p in parts])
        assert sizes.max() > 1.5 * sizes.min()

    def test_every_client_sees_every_class_with_enough_data(self):
        labels = _labels(4, 50)
        parts = quantity_shift_partition(labels, 4, np.random.default_rng(3))
        for part in parts:
            assert set(np.unique(labels[part])) == {0, 1, 2, 3}

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            quantity_shift_partition(_labels(2, 2), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            quantity_shift_partition(np.zeros(3, dtype=int), 5, np.random.default_rng(0))

    def test_determinism_given_seed(self):
        labels = _labels(3, 30)
        a = quantity_shift_partition(labels, 4, np.random.default_rng(7))
        b = quantity_shift_partition(labels, 4, np.random.default_rng(7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @given(
        st.integers(2, 5),
        st.integers(10, 30),
        st.integers(2, 6),
        st.floats(0.3, 3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_partition_invariants(self, num_classes, per_class, num_clients, concentration):
        labels = _labels(num_classes, per_class)
        parts = quantity_shift_partition(
            labels, num_clients, np.random.default_rng(0), concentration=concentration
        )
        assert len(parts) == num_clients
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(len(labels)))
        assert all(len(p) >= 2 for p in parts)

    @given(
        num_clients=st.integers(2, 8),
        concentration=st.floats(0.05, 3.0),
        min_per_client=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_client_holds_every_class(
        self, num_clients, concentration, min_per_client, seed
    ):
        """The FDIL partition invariant (paper Sec. II): quantity shift skews
        volumes, never class coverage — every client gets >= 1 sample of every
        class whenever each class has at least num_clients samples, even at
        extreme concentrations that starve clients before rebalancing."""
        num_classes = 3
        per_class = num_clients * min_per_client  # feasible for both invariants
        labels = _labels(num_classes, per_class)
        parts = quantity_shift_partition(
            labels,
            num_clients,
            np.random.default_rng(seed),
            concentration=concentration,
            min_per_client=min_per_client,
        )
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(len(labels)))
        for part in parts:
            assert len(part) >= min_per_client
            assert set(np.unique(labels[part])) == set(range(num_classes))

    def test_rebalancing_steals_across_donor_classes(self):
        """Regression: the rebalancer used to pop the donor's tail, so a
        starved client received only the highest class label and the donor
        could lose a whole class.  Stealing now rotates across the donor's
        classes, preserving full class coverage on both sides."""
        num_classes, num_clients = 4, 10
        labels = _labels(num_classes, 20)
        for seed in range(20):
            parts = quantity_shift_partition(
                labels,
                num_clients,
                np.random.default_rng(seed),
                concentration=0.05,  # extreme shift: rebalancing must kick in
                min_per_client=num_classes,
            )
            for part in parts:
                assert set(np.unique(labels[part])) == set(range(num_classes))

    def test_rebalancing_spares_covered_classes_over_singletons(self):
        """Regression: when a donor's surplus is all last-of-class samples,
        stealing must take invariant-exempt singletons (classes with fewer
        samples than clients) before a covered class's last sample — else the
        donor loses coverage of a class every client is guaranteed to hold."""
        covered = np.zeros(3, dtype=np.int64)  # class 0: 3 samples = num_clients
        singletons = np.arange(1, 10, dtype=np.int64)  # 9 single-sample classes
        labels = np.concatenate([covered, singletons])
        for seed in range(50):
            parts = quantity_shift_partition(
                labels, 3, np.random.default_rng(seed), concentration=0.05, min_per_client=4
            )
            assert [len(p) for p in parts] == [4, 4, 4]
            for part in parts:
                assert 0 in labels[part]  # every client keeps the covered class

    def test_single_class_rebalancing_reaches_minimum(self):
        """With one class the coverage rule cannot bind; stealing must still
        top every client up to the minimum."""
        labels = np.zeros(12, dtype=np.int64)
        for seed in range(10):
            parts = quantity_shift_partition(
                labels, 3, np.random.default_rng(seed), concentration=0.05, min_per_client=4
            )
            assert [len(p) for p in parts] == [4, 4, 4]

    def test_infeasible_minimum_raises(self):
        with pytest.raises(ValueError, match="cannot give"):
            quantity_shift_partition(
                _labels(2, 3), 4, np.random.default_rng(0), min_per_client=2
            )

    def test_partition_domain_across_clients(self):
        data = ArrayDataset(np.zeros((40, 3, 4, 4)), _labels(4, 10))
        shards = partition_domain_across_clients(data, [3, 7, 9], np.random.default_rng(0))
        assert set(shards) == {3, 7, 9}
        assert sum(len(s) for s in shards.values()) == 40
        assert partition_domain_across_clients(data, [], np.random.default_rng(0)) == {}


class _FinchOracle:
    """The hierarchical FINCH that :func:`finch` replaced, kept verbatim as the
    reference its labels must match bit for bit: it recursed on cluster means
    to build up to ``max_levels`` coarser partitions and a centroid table,
    of which RefFiL only ever read the finest partition."""

    def __init__(self, features: np.ndarray, max_levels: int = 5) -> None:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        self.partitions, self.num_clusters = [], []
        n = features.shape[0]
        if n == 0:
            return
        if n == 1:
            self.partitions.append(np.zeros(1, dtype=np.int64))
            self.num_clusters.append(1)
            return
        current_features = features
        mapping = np.arange(n)
        for _ in range(max_levels):
            adjacency = first_neighbor_adjacency(current_features)
            cluster_labels = _connected_components(adjacency)
            sample_labels = cluster_labels[mapping]
            num_clusters = int(cluster_labels.max()) + 1
            if self.num_clusters and num_clusters >= self.num_clusters[-1]:
                break
            self.partitions.append(sample_labels)
            self.num_clusters.append(num_clusters)
            if num_clusters <= 2:
                break
            current_features = self._cluster_means(current_features, cluster_labels)
            mapping = cluster_labels[mapping]

    @staticmethod
    def _cluster_means(features, labels):
        num_clusters = int(labels.max()) + 1
        means = np.zeros((num_clusters, features.shape[1]))
        for cluster in range(num_clusters):
            means[cluster] = features[labels == cluster].mean(axis=0)
        return means

    @property
    def finest(self) -> np.ndarray:
        if not self.partitions:
            raise ValueError("FINCH produced no partitions")
        return self.partitions[0]


@st.composite
def _finch_features(draw):
    """Row vectors that are pure noise, or noisy copies of a few centres (so
    the oracle builds several levels), with some rows duplicated (ties in the
    first-neighbour argmax)."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    centres = draw(st.integers(0, 6))
    if centres:
        features = rng.standard_normal((centres, dim))[rng.integers(0, centres, n)]
        features = features + draw(st.sampled_from([0.0, 0.01, 0.3])) * rng.standard_normal((n, dim))
    else:
        features = rng.standard_normal((n, dim))
    if n > 1 and draw(st.booleans()):
        features[rng.integers(0, n)] = features[rng.integers(0, n)]
    return features


class TestFinch:
    def test_adjacency_is_symmetric_with_unit_diagonal(self):
        features = np.random.default_rng(0).standard_normal((12, 6))
        adjacency = first_neighbor_adjacency(features)
        assert np.array_equal(adjacency, adjacency.T)
        assert np.all(np.diag(adjacency) == 1)

    def test_two_well_separated_blobs_never_share_a_cluster(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(0.0, 0.05, size=(15, 4)) + np.array([5, 0, 0, 0])
        blob_b = rng.normal(0.0, 0.05, size=(15, 4)) + np.array([-5, 0, 0, 0])
        # The partition may split a blob into several clusters, never merge two.
        labels = finch(np.vstack([blob_a, blob_b]))
        assert set(labels[:15]).isdisjoint(set(labels[15:]))

    def test_first_neighbours_always_share_a_cluster(self):
        features = np.random.default_rng(2).standard_normal((40, 5))
        labels = finch(features)
        assert int(labels.max()) + 1 < 40
        normalised = features / np.linalg.norm(features, axis=1, keepdims=True)
        similarity = normalised @ normalised.T
        np.fill_diagonal(similarity, -np.inf)
        assert np.array_equal(labels, labels[similarity.argmax(axis=1)])

    def test_labels_are_the_finest_partition_as_an_int_array(self):
        features = np.random.default_rng(3).standard_normal((20, 6))
        labels = finch(features)
        assert labels.shape == (20,) and labels.dtype == np.int64

    def test_single_and_empty_inputs(self):
        assert finch(np.ones((1, 4))).tolist() == [0]
        assert finch(np.zeros((0, 4))).shape == (0,)
        with pytest.raises(ValueError):
            finch(np.zeros(5))

    def test_partition_labels_are_contiguous(self):
        features = np.random.default_rng(4).standard_normal((25, 3))
        labels = finch(features)
        assert set(labels) == set(range(labels.max() + 1))

    @given(
        st.integers(4, 24),
        st.integers(2, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_sample_gets_a_label(self, n, dim):
        features = np.random.default_rng(n * dim).standard_normal((n, dim))
        labels = finch(features)
        assert labels.shape == (n,)
        assert labels.min() >= 0

    def test_domain_structured_prompts_never_mix_domains(self):
        """Prompts from different 'domains' must never share a cluster (the RefFiL use-case)."""
        rng = np.random.default_rng(5)
        domain_directions = np.eye(3)
        prompts = []
        for domain in range(3):
            prompts.append(domain_directions[domain] * 3 + rng.normal(0, 0.05, size=(8, 3)))
        labels = finch(np.vstack(prompts))
        blocks = [set(labels[d * 8 : (d + 1) * 8]) for d in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert blocks[i].isdisjoint(blocks[j])

    # Example count from the loaded profile: tier-1's default, 1,000 under
    # ``HYPOTHESIS_PROFILE=deep`` (CI's bit-identity sweep).
    @given(_finch_features())
    @settings(deadline=None)
    def test_labels_match_the_hierarchical_oracle_finest_bit_for_bit(self, features):
        labels = finch(features)
        expected = _FinchOracle(features).finest
        assert labels.dtype == expected.dtype
        assert labels.tobytes() == expected.tobytes()
