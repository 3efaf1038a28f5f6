"""Tests for the SGD optimiser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD


def _quadratic_step(optimizer, param):
    optimizer.zero_grad()
    loss = (param * param).sum()
    loss.backward()
    optimizer.step()
    return float(loss.data)


class TestSGD:
    def test_plain_sgd_matches_manual_update(self):
        p = Parameter(np.array([2.0]))
        SGD([p], lr=0.1).step()  # no grad yet -> no change
        assert p.data[0] == pytest.approx(2.0)
        opt = SGD([p], lr=0.1)
        _quadratic_step(opt, p)
        # grad = 2 * 2 = 4, update = 0.1 * 4
        assert p.data[0] == pytest.approx(2.0 - 0.4)

    def test_sgd_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = SGD([p], lr=0.2)
        for _ in range(50):
            _quadratic_step(opt, p)
        assert np.allclose(p.data, 0.0, atol=1e-3)

    def test_momentum_accelerates(self):
        plain = Parameter(np.array([5.0]))
        momentum = Parameter(np.array([5.0]))
        opt_plain = SGD([plain], lr=0.02)
        opt_momentum = SGD([momentum], lr=0.02, momentum=0.9)
        for _ in range(20):
            _quadratic_step(opt_plain, plain)
            _quadratic_step(opt_momentum, momentum)
        assert abs(momentum.data[0]) < abs(plain.data[0])

    def test_weight_decay_shrinks_parameters(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_grad_clipping_bounds_update(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, max_grad_norm=1.0)
        p.grad = np.array([100.0])
        opt.step()
        assert abs(p.data[0]) <= 1.0 + 1e-9

    def test_frozen_parameters_not_updated(self):
        p = Parameter(np.array([1.0]))
        p.requires_grad = False
        opt = SGD([p], lr=0.5)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(1.0)

    def test_validation_errors(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=-0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, nesterov=True)

    def test_nesterov_runs(self):
        p = Parameter(np.array([5.0]))
        opt = SGD([p], lr=0.1, momentum=0.9, nesterov=True)
        for _ in range(20):
            _quadratic_step(opt, p)
        assert abs(p.data[0]) < 5.0


class TestClipFrozenParams:
    def test_clip_norm_excludes_frozen_params(self):
        # A stale grad left on a later-frozen parameter must not inflate the
        # global norm: with only the live grad (norm 3) clipped to 1, the
        # update is exactly -1; counting the frozen grad would make it -0.6.
        live = Parameter(np.array([3.0]))
        frozen = Parameter(np.array([0.0]))
        frozen.requires_grad = False
        opt = SGD([live, frozen], lr=1.0, max_grad_norm=1.0)
        live.grad = np.array([3.0])
        frozen.grad = np.array([4.0])
        opt.step()
        assert live.data[0] == pytest.approx(2.0)
        assert frozen.data[0] == pytest.approx(0.0)

    def test_frozen_grad_not_rescaled(self):
        frozen = Parameter(np.array([0.0]))
        frozen.requires_grad = False
        live = Parameter(np.array([0.0]))
        opt = SGD([live, frozen], lr=1.0, max_grad_norm=1.0)
        live.grad = np.array([2.0])
        frozen.grad = np.array([7.0])
        opt.step()
        assert frozen.grad[0] == pytest.approx(7.0)
