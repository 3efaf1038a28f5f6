"""Tests for the non-iid partitioner and the FINCH clustering substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import FinchResult, finch, first_neighbor_adjacency
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
        result = finch(np.vstack([blob_a, blob_b]))
        # Every partition level must keep the two blobs in disjoint clusters
        # (cluster purity); the finest level may split a blob into several
        # clusters, which the recursion then merges.
        for labels in result.partitions:
            assert set(labels[:15]).isdisjoint(set(labels[15:]))
        assert result.partitions[-1].max() <= result.finest.max()

    def test_num_clusters_decreases_over_levels(self):
        features = np.random.default_rng(2).standard_normal((40, 5))
        result = finch(features)
        assert result.num_clusters == sorted(result.num_clusters, reverse=True)
        assert result.num_clusters[0] < 40

    def test_centroids_shape(self):
        features = np.random.default_rng(3).standard_normal((20, 6))
        result = finch(features)
        assert result.centroids.shape == (result.num_clusters[0], 6)

    def test_single_and_empty_inputs(self):
        single = finch(np.ones((1, 4)))
        assert single.num_clusters == [1]
        empty = finch(np.zeros((0, 4)))
        assert empty.partitions == []
        with pytest.raises(ValueError):
            empty.finest
        with pytest.raises(ValueError):
            finch(np.zeros(5))

    def test_partition_labels_are_contiguous(self):
        features = np.random.default_rng(4).standard_normal((25, 3))
        labels = finch(features).finest
        assert set(labels) == set(range(labels.max() + 1))

    @given(
        st.integers(4, 24),
        st.integers(2, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_sample_gets_a_label(self, n, dim):
        features = np.random.default_rng(n * dim).standard_normal((n, dim))
        result = finch(features)
        assert result.finest.shape == (n,)
        assert result.finest.min() >= 0

    def test_domain_structured_prompts_never_mix_domains(self):
        """Prompts from different 'domains' must never share a cluster (the RefFiL use-case)."""
        rng = np.random.default_rng(5)
        domain_directions = np.eye(3)
        prompts = []
        for domain in range(3):
            prompts.append(domain_directions[domain] * 3 + rng.normal(0, 0.05, size=(8, 3)))
        result = finch(np.vstack(prompts))
        labels = result.finest
        blocks = [set(labels[d * 8 : (d + 1) * 8]) for d in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert blocks[i].isdisjoint(blocks[j])
