"""Tests for the SGD optimiser."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.autograd import functional as F
from repro.autograd.tensor import default_dtype
from repro.datasets.synthetic import generate_domain_split
from repro.federated.client import ClientHandle, LocalTrainingConfig, run_local_sgd
from repro.federated.increment import ClientGroup
from repro.nn.linear import Linear
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
        assert opt._velocity.dtype == np.float32
        assert np.shares_memory(p.data, opt._flat)

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
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"finite and positive, got {lr}"):
                SGD([p], lr=lr)
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


class TestOneFlatBuffer:
    def test_a_repeated_parameter_is_refused(self):
        # A flat buffer cannot hold two views of one parameter; the
        # per-parameter loop stepped it twice and counted its grad twice.
        p, q = Parameter(np.array([1.0])), Parameter(np.array([2.0]))
        with pytest.raises(ValueError, match=r"repeated at positions \[0, 2\]"):
            SGD([p, q, p], lr=0.1)

    def test_mixed_dtypes_are_refused(self):
        wide = Parameter(np.array([1.0]))
        with default_dtype(np.float32):
            narrow = Parameter(np.array([1.0]))
        with pytest.raises(ValueError, match=r"\['float32', 'float64'\]"):
            SGD([wide, narrow], lr=0.1)

    def test_non_finite_learning_rates_are_refused_by_the_config(self):
        for lr in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match=f"finite and positive, got {lr}"):
                LocalTrainingConfig(learning_rate=lr)

    def test_parameters_become_views_of_the_buffer_with_their_values(self):
        a = Parameter(np.arange(6.0).reshape(2, 3))
        b = Parameter(np.array(7.0))
        opt = SGD([a, b], lr=0.1)
        assert np.shares_memory(a.data, opt._flat) and np.shares_memory(b.data, opt._flat)
        assert a.data.shape == (2, 3) and b.data.shape == ()
        assert opt._flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]

    def test_the_next_step_updates_what_load_state_dict_wrote(self):
        model = Linear(3, 2, rng=np.random.default_rng(0))
        opt = SGD(model.parameters(), lr=0.5)
        loaded = {key: np.full_like(value, 2.0) for key, value in model.state_dict().items()}
        model.load_state_dict(loaded)
        for param in model.parameters():
            param.grad = np.full_like(param.data, 0.1)
        opt.step()
        for key, value in model.state_dict().items():
            assert np.array_equal(value, np.full_like(value, 2.0 - 0.5 * 0.1))

    def test_after_local_sgd_the_state_dict_is_the_buffer(self, tiny_spec, monkeypatch):
        model = Linear(3 * 16 * 16, tiny_spec.num_classes, rng=np.random.default_rng(0))
        optimizers = []
        sgd_step = SGD.step

        def recording_step(optimizer):
            sgd_step(optimizer)
            optimizers.append(optimizer)

        monkeypatch.setattr(SGD, "step", recording_step)
        client = ClientHandle(
            client_id=0,
            task_id=0,
            group=ClientGroup.NEW,
            dataset=generate_domain_split(tiny_spec, 0, "train"),
            rng=np.random.default_rng(0),
            training=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.1),
        )
        run_local_sgd(
            model, client, lambda m, x, y, e: F.cross_entropy(m(x.reshape(len(y), -1)), y)
        )
        (optimizer,) = set(optimizers)
        state = model.state_dict()
        flat = np.concatenate([state[name].ravel() for name, _ in model.named_parameters()])
        assert np.array_equal(flat, optimizer._flat)

    def test_a_step_allocates_nothing_of_buffer_size(self):
        rng = np.random.default_rng(0)
        params = [Parameter(rng.normal(size=shape)) for shape in ((200, 100), (100,), (50, 40))]
        params[2].requires_grad = False  # the masked path too
        opt = SGD(params, lr=0.01)
        for param in params:
            param.grad = 10 * rng.normal(size=param.data.shape)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < opt._flat.nbytes / 20, peak


class _PerParameterSGD:
    """The per-parameter loop ``SGD`` ran before its flat buffer: the oracle."""

    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        self.lr = lr
        self._velocity = {}

    def _clip_gradients(self):
        total = 0.0
        for param in self.parameters:
            if param.grad is not None and param.requires_grad:
                total += float(np.sum(param.grad ** 2))
        norm = np.sqrt(total)
        if norm > MAX_GRAD_NORM:
            scale = MAX_GRAD_NORM / norm
            for param in self.parameters:
                if param.grad is not None and param.requires_grad:
                    param.grad *= scale

    def step(self):
        self._clip_gradients()
        for param in self.parameters:
            if param.grad is None or not param.requires_grad:
                continue
            velocity = self._velocity.get(id(param))
            if velocity is None:
                velocity = np.zeros_like(param.data)
            velocity = MOMENTUM * velocity + param.grad
            self._velocity[id(param)] = velocity
            param.data -= self.lr * velocity


_SHAPES = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)


class TestMatchesThePerParameterLoop:
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        shapes=st.lists(_SHAPES, min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        lr=st.floats(1e-3, 1.0),
        steps=st.lists(st.tuples(st.booleans(), st.integers(0, 2**32 - 1)), min_size=1, max_size=4),
    )
    # A parameter at 1.43568 takes a clipped update of about 1.52881 and lands
    # at -0.0931: the two results differ by 2 ulps of the update, 2.4e-7, 2.6x
    # a bound scaled by the cancelled result.
    @example(dtype=np.float32, shapes=[()] * 5, seed=1397, lr=0.3125, steps=[(True, 1397)])
    def test_a_step_matches_the_per_parameter_loop(self, dtype, shapes, seed, lr, steps):
        """From equal states, an unclipped step is bit-identical to the loop and
        a clipped one equal to rounding (only the norm's summation order
        differs), bounded by 1e-6 / 1e-12 of the largest term of each array's
        last operation: ``p`` and ``lr * v`` for a parameter, ``MOMENTUM * v``
        and the clipped grad for a velocity.  Some grads are ``None`` and some parameters frozen (with a
        stale grad), and the states are re-synced after each step so that a
        velocity survives a skipped step in both."""
        rng = np.random.default_rng(seed)
        values = [rng.normal(size=shape).astype(dtype) for shape in shapes]
        frozen = rng.random(len(shapes)) < 0.25
        with default_dtype(dtype):
            flat_params = [Parameter(v.copy(), requires_grad=not f) for v, f in zip(values, frozen)]
            loop_params = [Parameter(v.copy(), requires_grad=not f) for v, f in zip(values, frozen)]
        flat, loop = SGD(flat_params, lr), _PerParameterSGD(loop_params, lr)
        tol = 1e-12 if dtype == np.float64 else 1e-6
        for clipped, step_seed in steps:
            step_rng = np.random.default_rng(step_seed)
            grads = [step_rng.normal(size=v.shape) for v in values]
            present = step_rng.random(len(grads)) < 0.75
            live = [g for g, ok, f in zip(grads, present, frozen) if ok and not f]
            norm = np.sqrt(sum(float(np.sum(g ** 2)) for g in live))
            if norm > 0:  # away from the bound, so rounding cannot flip the clip
                target = step_rng.uniform(6.0, 50.0) if clipped else step_rng.uniform(0.1, 4.5)
                grads = [g * (target / norm) for g in grads]
            grads = [np.asarray(g, dtype=dtype) if ok else None for g, ok in zip(grads, present)]
            for param_set in (flat_params, loop_params):
                for param, grad in zip(param_set, grads):
                    param.grad = None if grad is None else grad.copy()
            before = [b.data.copy() for b in loop_params]
            velocity_before = {key: v.copy() for key, v in loop._velocity.items()}
            flat.step()
            loop.step()  # clips the loop's own p.grad in place
            for param, grad in zip(flat_params, grads):  # p.grad is never rescaled
                assert (param.grad is None) if grad is None else np.array_equal(param.grad, grad)
            # Each pair with the terms of its last operation: the rounding of a
            # clipped step scales with them, not with a result they cancel to.
            pairs = []
            for a, b, p_before in zip(flat_params, loop_params, before):
                velocity = loop._velocity.get(id(b))
                terms = [p_before] if velocity is None else [p_before, lr * velocity]
                pairs.append((a.data, b.data, terms))
            for part, b in zip(flat._slices, loop_params):
                if id(b) not in loop._velocity:
                    continue
                if b.grad is not None and b.requires_grad:
                    terms = [MOMENTUM * velocity_before.get(id(b), 0.0), b.grad]
                else:
                    terms = [loop._velocity[id(b)]]
                pairs.append((flat._velocity[part], loop._velocity[id(b)].ravel(), terms))
            for new, old, terms in pairs:
                assert new.dtype == old.dtype == dtype
                if clipped and live:
                    scale = max(float(np.max(np.abs(t), initial=0.0)) for t in terms) or 1.0
                    assert float(np.max(np.abs(new - old), initial=0.0)) <= tol * scale
                else:
                    assert np.array_equal(new, old)
            for a, b in zip(flat_params, loop_params):  # re-sync: the next step starts equal
                b.data[...] = a.data
            loop._velocity = {
                id(b): flat._velocity[part].reshape(b.data.shape).copy()
                for part, b in zip(flat._slices, loop_params)
            }
