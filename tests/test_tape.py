"""Unit and property tests for the kernel plane (repro.autograd.tape).

Covers the three contracts the plane advertises:

* tape-mode replay of a compiled :class:`Plan` is *bit-for-bit* identical to
  the eager closure backward (loss and every leaf gradient);
* the plan cache is keyed so any shape or dtype change misses;
* the batched lockstep replay matches per-client eager runs to float
  accumulation-order tolerance, and refuses (``PlanNotBatchable``) anything
  it cannot vectorize exactly.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, functional as F
from repro.autograd.tape import (
    KERNELS,
    Plan,
    PlanCache,
    PlanError,
    PlanNotBatchable,
    Tape,
    get_kernel,
    kernel_mode,
    model_fingerprint,
    plan_key,
    set_kernel,
    tracing,
)
from repro.nn.linear import Linear
from repro.nn.module import Parameter

RNG = np.random.default_rng(123)


def _mlp_step(x, w1, b1, w2, labels):
    """One tiny MLP cross-entropy step shared by eager and traced runs."""
    h = F.relu(F.linear(x, w1, b1))
    logits = h @ w2
    return F.cross_entropy(logits, labels)


def _fresh_params():
    w1 = Parameter(RNG.standard_normal((5, 3)))
    b1 = Parameter(RNG.standard_normal(5))
    w2 = Parameter(RNG.standard_normal((5, 4)))
    return w1, b1, w2


class TestKernelGlobals:
    def test_default_is_eager(self):
        assert get_kernel() == "eager"
        assert KERNELS == ("eager", "tape", "batched")

    def test_set_kernel_validates(self):
        with pytest.raises(ValueError):
            set_kernel("jit")

    def test_kernel_mode_restores_on_exit(self):
        with kernel_mode("tape"):
            assert get_kernel() == "tape"
            with pytest.raises(ValueError):
                with kernel_mode("nope"):
                    pass  # pragma: no cover
            assert get_kernel() == "tape"
        assert get_kernel() == "eager"

    def test_nested_tracing_rejected(self):
        with tracing(Tape()):
            with pytest.raises(RuntimeError):
                with tracing(Tape()):
                    pass  # pragma: no cover


class TestPlanReplayParity:
    """Compiled-plan replay must be bit-identical to the eager backward."""

    def _trace(self, params, x_np, labels):
        w1, b1, w2 = params
        tape = Tape()
        with tracing(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            loss = _mlp_step(x, w1, b1, w2, labels)
        return Plan(tape, loss)

    def _eager_grads(self, params, x_np, labels):
        w1, b1, w2 = params
        for p in (w1, b1, w2):
            p.zero_grad()
        loss = _mlp_step(Tensor(x_np), w1, b1, w2, labels)
        loss.backward()
        return loss.data, [p.grad.copy() for p in (w1, b1, w2)]

    def test_replay_matches_eager_bitwise(self):
        params = _fresh_params()
        x_np = RNG.standard_normal((6, 3))
        labels = np.array([0, 1, 2, 3, 0, 1])
        plan = self._trace(params, x_np, labels)
        loss_value, leaf_grads = plan.execute({"x": x_np})
        eager_loss, eager_grads = self._eager_grads(params, x_np, labels)
        assert np.array_equal(loss_value, eager_loss)
        for param, expected in zip(params, eager_grads):
            replayed = plan.grad_for(param, leaf_grads)
            assert np.array_equal(replayed, expected)

    def test_replay_with_new_batch_matches_fresh_eager(self):
        params = _fresh_params()
        labels = np.array([1, 2, 0, 3])
        plan = self._trace(params, RNG.standard_normal((4, 3)), labels)
        x2 = RNG.standard_normal((4, 3))
        loss_value, leaf_grads = plan.execute({"x": x2})
        eager_loss, eager_grads = self._eager_grads(params, x2, labels)
        assert np.array_equal(loss_value, eager_loss)
        for param, expected in zip(params, eager_grads):
            assert np.array_equal(plan.grad_for(param, leaf_grads), expected)

    def test_replay_reads_live_param_values(self):
        # A replay after a parameter update must use the updated values, not
        # the values captured at trace time.
        params = _fresh_params()
        labels = np.array([0, 1])
        x_np = RNG.standard_normal((2, 3))
        plan = self._trace(params, x_np, labels)
        params[0].data = params[0].data - 0.5
        loss_value, _ = plan.execute({"x": x_np})
        eager_loss, _ = self._eager_grads(params, x_np, labels)
        assert np.array_equal(loss_value, eager_loss)

    def test_apply_grads_mirrors_accumulate(self):
        params = _fresh_params()
        labels = np.array([0, 1, 2])
        x_np = RNG.standard_normal((3, 3))
        plan = self._trace(params, x_np, labels)
        _, leaf_grads = plan.execute({"x": x_np})
        _, eager_grads = self._eager_grads(params, x_np, labels)
        for p in params:
            p.zero_grad()
        plan.apply_grads(leaf_grads)
        plan.apply_grads(leaf_grads)  # second fold accumulates, like eager
        for param, expected in zip(params, eager_grads):
            assert np.array_equal(param.grad, 2.0 * expected)


# The op pool for the random-program property test: every entry maps one
# (4, 4) hidden state and two (4, 4) parameters to a new (4, 4) state.
_PROGRAM_OPS = {
    "matmul0": lambda h, p0, p1: h @ p0,
    "add1": lambda h, p0, p1: h + p1,
    "mul0": lambda h, p0, p1: h * p0,
    "sub1": lambda h, p0, p1: h - p1,
    "tanh": lambda h, p0, p1: F.tanh(h),
    "sigmoid": lambda h, p0, p1: F.sigmoid(h),
    "relu": lambda h, p0, p1: F.relu(h),
    "gelu": lambda h, p0, p1: F.gelu(h),
    "scale": lambda h, p0, p1: h * 0.5,
    "square": lambda h, p0, p1: h * h,
    "norm": lambda h, p0, p1: F.l2_normalize(h),
    "softmax": lambda h, p0, p1: F.softmax(h),
}


def _run_program(codes, x, p0, p1):
    h = x
    for code in codes:
        h = _PROGRAM_OPS[code](h, p0, p1)
    return (h * h).mean()


class TestRandomProgramProperty:
    """Tape replay ≡ eager for arbitrary op sequences (hypothesis)."""

    @settings(max_examples=30, deadline=None)
    @given(
        codes=st.lists(
            st.sampled_from(sorted(_PROGRAM_OPS)), min_size=1, max_size=8
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_tape_replay_bitwise_equals_eager(self, codes, seed):
        rng = np.random.default_rng(seed)
        p0 = Parameter(rng.standard_normal((4, 4)))
        p1 = Parameter(rng.standard_normal((4, 4)))
        x_np = rng.standard_normal((4, 4))

        tape = Tape()
        with tracing(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            loss = _run_program(codes, x, p0, p1)
        plan = Plan(tape, loss)

        # replay on a *new* batch so the plan genuinely recomputes
        x2 = rng.standard_normal((4, 4))
        loss_value, leaf_grads = plan.execute({"x": x2})

        p0.zero_grad(), p1.zero_grad()
        eager_loss = _run_program(codes, Tensor(x2), p0, p1)
        if eager_loss.requires_grad:  # a program may never touch a parameter
            eager_loss.backward()

        assert np.array_equal(loss_value, eager_loss.data)
        for param in (p0, p1):
            replayed = plan.grad_for(param, leaf_grads)
            if param.grad is None:
                assert replayed is None
            else:
                assert np.array_equal(replayed, param.grad)


class TestPlanCacheKeying:
    """Any shape or dtype change must be a cache miss (hypothesis)."""

    def _model(self):
        return Linear(3, 2, rng=np.random.default_rng(0))

    def test_same_batch_hits(self):
        model = self._model()
        images = np.zeros((4, 3))
        labels = np.zeros(4, dtype=np.int64)
        cache = PlanCache()
        key = plan_key(model, images, labels)
        assert cache.get(key) is None
        cache.put(key, "sentinel")
        assert cache.get(plan_key(model, images.copy(), labels.copy())) == "sentinel"
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=6),
        dtype=st.sampled_from(["float32", "float64"]),
        other_batch=st.integers(min_value=1, max_value=6),
        other_dtype=st.sampled_from(["float32", "float64"]),
    )
    def test_shape_or_dtype_change_invalidates(self, batch, dtype, other_batch, other_dtype):
        model = self._model()
        key_a = plan_key(model, np.zeros((batch, 3), dtype=dtype), np.zeros(batch, np.int64))
        key_b = plan_key(
            model, np.zeros((other_batch, 3), dtype=other_dtype), np.zeros(other_batch, np.int64)
        )
        assert (key_a == key_b) == (batch == other_batch and dtype == other_dtype)

    def test_fingerprint_tracks_trainability(self):
        model = self._model()
        before = model_fingerprint(model)
        model.weight.requires_grad = False
        assert model_fingerprint(model) != before


class TestPlanCompileErrors:
    def test_loss_outside_tape_rejected(self):
        tape = Tape()
        with tracing(tape):
            _ = Tensor(np.ones(3)) * 2.0
        stray = Tensor(np.ones(3)) * 3.0  # built after tracing ended
        with pytest.raises(PlanError):
            Plan(tape, stray)

    def test_trainable_non_parameter_leaf_rejected(self):
        rogue = Tensor(np.ones(3), requires_grad=True)
        tape = Tape()
        with tracing(tape):
            loss = (rogue * 2.0).sum()
        with pytest.raises(PlanError, match="non-parameter leaf"):
            Plan(tape, loss)

    def test_grad_requiring_input_rejected(self):
        tape = Tape()
        with tracing(tape):
            x = Tensor(np.ones(3), requires_grad=True)
            tape.mark_input("x", x)
            p = Parameter(np.ones(3))
            loss = (x * p).sum()
        with pytest.raises(PlanError, match="must not require grad"):
            Plan(tape, loss)


class TestBatchedReplay:
    def _trace_quadratic(self, w, b, x_np):
        tape = Tape()
        with tracing(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            h = F.tanh(x @ w + b)
            loss = (h * h).mean()
        return Plan(tape, loss)

    def test_batched_matches_per_client_eager(self):
        k, batch, dim = 3, 4, 3
        w_stack = RNG.standard_normal((k, dim, dim))
        b_stack = RNG.standard_normal((k, dim))
        x_stack = RNG.standard_normal((k, batch, dim))

        w = Parameter(w_stack[0].copy())
        b = Parameter(b_stack[0].copy())
        plan = self._trace_quadratic(w, b, x_stack[0])
        slots = [slot for slot, _ in plan.param_leaves]
        plan.prepare_batched(slots)
        slot_of = {id(p): slot for slot, p in plan.param_leaves}
        stacks = {slot_of[id(w)]: w_stack.copy(), slot_of[id(b)]: b_stack.copy()}
        loss_vec, leaf_grads = plan.execute_batched(k, {"x": x_stack}, stacks)

        assert loss_vec.shape[0] == k
        for i in range(k):
            wi = Parameter(w_stack[i].copy())
            bi = Parameter(b_stack[i].copy())
            h = F.tanh(Tensor(x_stack[i]) @ wi + bi)
            loss = (h * h).mean()
            loss.backward()
            assert np.allclose(loss_vec[i], loss.data, atol=1e-12)
            assert np.allclose(leaf_grads[slot_of[id(w)]][i], wi.grad, atol=1e-12)
            assert np.allclose(leaf_grads[slot_of[id(b)]][i], bi.grad, atol=1e-12)

    def test_dropout_plan_is_not_batchable(self):
        w = Parameter(RNG.standard_normal((3, 3)))
        tape = Tape()
        with tracing(tape):
            x = Tensor(RNG.standard_normal((2, 3)))
            tape.mark_input("x", x)
            h = F.dropout(x @ w, 0.5, training=True, rng=np.random.default_rng(0))
            loss = (h * h).mean()
        plan = Plan(tape, loss)
        with pytest.raises(PlanNotBatchable, match="rng"):
            plan.prepare_batched([slot for slot, _ in plan.param_leaves])

    def test_unstacked_trainable_param_is_not_batchable(self):
        w = Parameter(RNG.standard_normal((3, 3)))
        b = Parameter(RNG.standard_normal(3))
        plan = self._trace_quadratic(w, b, RNG.standard_normal((2, 3)))
        only_w = [slot for slot, p in plan.param_leaves if p is w]
        with pytest.raises(PlanNotBatchable, match="stacked set"):
            plan.prepare_batched(only_w)


class TestBatchNormOp:
    """The fused batch-norm op through the plan engine: its running-stat
    update is a write inside a forward, so replay order and stacking matter."""

    N, C, SIZE, CLASSES = 6, 4, 5, 3

    def _params(self, rng):
        return {
            "conv": Parameter(0.3 * rng.standard_normal((self.C, 2, 3, 3))),
            "gamma": Parameter(rng.uniform(0.5, 1.5, self.C)),
            "beta": Parameter(0.1 * rng.standard_normal(self.C)),
            "head": Parameter(0.3 * rng.standard_normal((self.C, self.CLASSES))),
        }

    def _step(self, params, x, labels, running_mean, running_var):
        h = F.conv2d(x, params["conv"], padding=1)
        h = F.relu(
            F.batch_norm_2d(
                h, params["gamma"], params["beta"], running_mean, running_var, training=True
            )
        )
        return F.cross_entropy(F.global_avg_pool2d(h) @ params["head"], labels)

    def _batches(self, rng, count):
        return [
            (
                rng.standard_normal((self.N, 2, self.SIZE, self.SIZE)),
                rng.integers(0, self.CLASSES, self.N),
            )
            for _ in range(count)
        ]

    def _trace(self, params, x_np, labels, running_mean, running_var):
        tape = Tape()
        tape.register_dynamic("labels", labels)
        tape.register_dynamic("running_mean", running_mean)
        tape.register_dynamic("running_var", running_var)
        with tracing(tape):
            x = Tensor(x_np)
            tape.mark_input("x", x)
            loss = self._step(params, x, labels, running_mean, running_var)
        return Plan(tape, loss)

    def test_replay_bitwise_equals_eager_including_running_buffers(self):
        rng = np.random.default_rng(5)
        params = self._params(rng)
        batches = self._batches(rng, 5)

        eager_buffers = np.zeros(self.C), np.ones(self.C)
        eager = []
        for x_np, labels in batches:
            for p in params.values():
                p.zero_grad()
            loss = self._step(params, Tensor(x_np), labels, *eager_buffers)
            loss.backward()
            eager.append((loss.data, {name: p.grad.copy() for name, p in params.items()}))

        # Tracing runs the first batch (and its buffer update) eagerly; the
        # four replays must then walk the buffers exactly as eager did.
        replay_buffers = np.zeros(self.C), np.ones(self.C)
        plan = self._trace(params, *batches[0], *replay_buffers)
        for (x_np, labels), (eager_loss, eager_grads) in zip(batches[1:], eager[1:]):
            loss_value, leaf_grads = plan.execute({"x": x_np, "labels": labels})
            assert np.array_equal(loss_value, eager_loss)
            for name, param in params.items():
                assert np.array_equal(plan.grad_for(param, leaf_grads), eager_grads[name])
        for replayed, expected in zip(replay_buffers, eager_buffers):
            assert np.array_equal(replayed, expected)
        assert not np.array_equal(eager_buffers[0], np.zeros(self.C))

    def test_dead_train_mode_record_still_updates_buffers(self):
        # A train-mode batch norm whose output never reaches the loss is dead
        # code with an effect: eliminating it would freeze its running stats.
        rng = np.random.default_rng(6)
        w = Parameter(rng.standard_normal((3, 3)))
        ones = Tensor(np.ones(2))
        running_mean, running_var = np.zeros(2), np.ones(2)
        tape = Tape()
        tape.register_dynamic("running_mean", running_mean)
        tape.register_dynamic("running_var", running_var)
        with tracing(tape):
            x = Tensor(rng.standard_normal((4, 3)))
            tape.mark_input("x", x)
            F.batch_norm_2d(
                Tensor(np.full((4, 2, 1, 1), 3.0)), ones, ones, running_mean, running_var, True
            )
            loss = ((x @ w) * (x @ w)).mean()
        plan = Plan(tape, loss)
        after_trace = running_mean.copy()
        plan.execute({})
        assert not np.array_equal(running_mean, after_trace)

    def test_batched_matches_per_client_eager_with_stacked_buffers(self):
        k = 3
        rng = np.random.default_rng(7)
        clients = [self._params(rng) for _ in range(k)]
        (x0, labels0), = self._batches(rng, 1)
        template = {name: Parameter(p.data.copy()) for name, p in clients[0].items()}
        plan = self._trace(template, x0, labels0, np.zeros(self.C), np.ones(self.C))
        slot_of = {id(p): slot for slot, p in plan.param_leaves}
        plan.prepare_batched(list(slot_of.values()))  # PlanNotBatchable would be a fallback
        stacks = {
            slot_of[id(template[name])]: np.stack([c[name].data for c in clients])
            for name in template
        }
        mean_stack = np.tile(np.zeros(self.C), (k, 1))
        var_stack = np.tile(np.ones(self.C), (k, 1))
        steps = [self._batches(rng, 2) for _ in range(k)]
        eager_buffers = [(np.zeros(self.C), np.ones(self.C)) for _ in range(k)]
        for step in range(2):
            bindings = {
                "x": np.stack([steps[i][step][0] for i in range(k)]),
                "labels": np.stack([steps[i][step][1] for i in range(k)]),
                "running_mean": mean_stack,
                "running_var": var_stack,
            }
            loss_vec, leaf_grads = plan.execute_batched(k, bindings, stacks)
            leaf_grads = {slot: grad.copy() for slot, grad in leaf_grads.items()}
            for i, params in enumerate(clients):
                for p in params.values():
                    p.zero_grad()
                x_np, labels = steps[i][step]
                loss = self._step(params, Tensor(x_np), labels, *eager_buffers[i])
                loss.backward()
                assert np.allclose(loss_vec[i], loss.data, atol=1e-12)
                for name, p in params.items():
                    stacked = leaf_grads[slot_of[id(template[name])]][i]
                    assert np.allclose(stacked, p.grad, atol=1e-12)
                assert np.allclose(mean_stack[i], eager_buffers[i][0], atol=1e-12)
                assert np.allclose(var_stack[i], eager_buffers[i][1], atol=1e-12)


class TestGraphFreeing:
    def test_backward_releases_interior_nodes(self):
        x = Tensor(RNG.standard_normal((8, 8)), requires_grad=True)
        h = F.tanh(x @ x.T)
        loss = (h * h).sum()
        # Tensor has no __weakref__ slot; watch the backward closure instead —
        # it is what pins the op context (and its saved activations) alive.
        closure = weakref.ref(h._backward)
        loss.backward()
        assert loss._backward is None and loss._parents == ()
        assert h._backward is None and h._parents == ()
        gc.collect()
        assert closure() is None
        assert x.grad is not None

    def test_second_backward_is_harmless_noop_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        loss.backward()  # freed graph: no parents left to traverse
        assert np.array_equal(x.grad, first)  # nothing flows back twice
