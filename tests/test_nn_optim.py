"""Tests for the SGD optimiser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import default_dtype
from repro.nn.module import Parameter
from repro.nn.optim import MAX_GRAD_NORM, MOMENTUM, SGD


def _quadratic_step(optimizer, param):
    optimizer.zero_grad()
    loss = (param * param).sum()
    loss.backward()
    optimizer.step()
    return float(loss.data)


class TestSGD:
    def test_first_step_is_the_plain_update(self):
        p = Parameter(np.array([2.0]))
        SGD([p], lr=0.1).step()  # no grad yet -> no change
        assert p.data[0] == pytest.approx(2.0)
        opt = SGD([p], lr=0.1)
        _quadratic_step(opt, p)
        # grad = 2 * 2 = 4 (under the clip), velocity starts at zero: update 0.1 * 4
        assert p.data[0] == pytest.approx(2.0 - 0.4)

    def test_sgd_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = SGD([p], lr=0.2)
        for _ in range(200):
            _quadratic_step(opt, p)
        assert np.allclose(p.data, 0.0, atol=1e-3)

    def test_velocity_accumulates_at_the_fixed_momentum(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=0.5)
        p.grad = np.array([1.0])
        opt.step()
        p.grad = np.array([1.0])
        opt.step()
        # velocities 1 and 1 + MOMENTUM, each applied at lr 0.5
        assert p.data[0] == pytest.approx(-0.5 * (1.0 + (1.0 + MOMENTUM)))

    def test_grad_clipping_bounds_update(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0)
        p.grad = np.array([100.0])
        opt.step()
        assert p.data[0] == pytest.approx(-MAX_GRAD_NORM)

    def test_gradient_under_the_bound_is_not_rescaled(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0)
        p.grad = np.array([0.5 * MAX_GRAD_NORM])
        opt.step()
        assert p.data[0] == -0.5 * MAX_GRAD_NORM

    def test_float32_parameters_stay_float32(self):
        with default_dtype(np.float32):
            p = Parameter(np.array([1.0, -2.0]))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([100.0, 3.0], dtype=np.float32)
        opt.step()
        opt.step()  # the second step reads the stored float32 velocity
        assert p.data.dtype == np.float32
        assert p.grad.dtype == np.float32
        assert opt._velocity[id(p)].dtype == np.float32

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
        with pytest.raises(TypeError):
            SGD([p], lr=0.1, momentum=0.0)


class TestClipFrozenParams:
    def test_clip_norm_excludes_frozen_params(self):
        # A stale grad left on a later-frozen parameter must not inflate the
        # global norm: with only the live grad (norm 30) clipped to 5, the
        # update is exactly -5; counting the frozen grad would make it -3.
        live = Parameter(np.array([30.0]))
        frozen = Parameter(np.array([0.0]))
        frozen.requires_grad = False
        opt = SGD([live, frozen], lr=1.0)
        live.grad = np.array([30.0])
        frozen.grad = np.array([40.0])
        opt.step()
        assert live.data[0] == pytest.approx(30.0 - MAX_GRAD_NORM)
        assert frozen.data[0] == pytest.approx(0.0)

    def test_frozen_grad_not_rescaled(self):
        frozen = Parameter(np.array([0.0]))
        frozen.requires_grad = False
        live = Parameter(np.array([0.0]))
        opt = SGD([live, frozen], lr=1.0)
        live.grad = np.array([20.0])
        frozen.grad = np.array([70.0])
        opt.step()
        assert frozen.grad[0] == pytest.approx(70.0)
