"""Tests for the cross-cutting utilities: the interval timer and derived rng streams."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils import Timer, spawn_rng


class TestTimer:
    def test_intervals_of_one_name_accumulate(self):
        timer = Timer()
        for _ in range(3):
            with timer.measure("total"):
                time.sleep(0.002)
        assert timer.count("total") == 3
        assert timer.total("total") >= 0.006
        timer.record("total", 1.5)
        assert timer.count("total") == 4
        assert timer.total("total") >= 1.506

    def test_an_unmeasured_name_reads_zero(self):
        timer = Timer()
        with timer.measure("evaluation"):
            pass
        assert timer.total("round_evaluation") == 0.0
        assert timer.count("round_evaluation") == 0

    def test_an_interval_that_raises_is_still_recorded(self):
        timer = Timer()
        with pytest.raises(KeyError):
            with timer.measure("evaluation"):
                raise KeyError("boom")
        assert timer.count("evaluation") == 1
        assert timer.total("evaluation") >= 0.0


class TestSpawnRng:
    def test_same_seed_and_labels_give_the_same_stream(self):
        first = spawn_rng(7, "client", 3, "task", 1).standard_normal(8)
        second = spawn_rng(7, "client", 3, "task", 1).standard_normal(8)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize(
        "other",
        [(8, "client", 3, "task", 1), (7, "client", 4, "task", 1), (7, "client", 3), (7, "task", 1, "client", 3)],
        ids=["seed", "label", "prefix", "order"],
    )
    def test_a_different_seed_or_label_path_gives_another_stream(self, other):
        base = spawn_rng(7, "client", 3, "task", 1).standard_normal(8)
        assert not np.array_equal(spawn_rng(*other).standard_normal(8), base)
