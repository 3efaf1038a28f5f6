"""Tests for the plan replay engine (repro.autograd.planopt).

The contract under test is absolute: plan replay is *bit-for-bit* identical
to the eager step (``apply_op`` + ``Tensor.backward``) — losses, every leaf
gradient, dtype for dtype, down to gradient memory layout — while dropping
dead records, fusing elementwise chains and serving intermediates plus
gradient accumulators from reused buffers.  Anything weaker would change
whole-run hashes and the run cache's fold of ``kernel="tape"`` into
``"eager"`` would be wrong.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, functional as F
from repro.autograd.tape import (
    Plan,
    PlanCache,
    Tape,
    _FINGERPRINTS,
    model_fingerprint,
    tracing,
)
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter

RNG = np.random.default_rng(7)


def _compile(build, x_np):
    """Trace ``build(x) -> loss`` on ``x_np`` into a Plan with input ``"x"``."""
    tape = Tape()
    with tracing(tape):
        x = Tensor(x_np)
        tape.mark_input("x", x)
        loss = build(x)
    return Plan(tape, loss)


def _slots(plan, **tensors):
    return {name: plan.tape._slots[id(t)] for name, t in tensors.items()}


def _eager_step(build, x_np, params):
    """The reference: the same step through apply_op + Tensor.backward."""
    for param in params:
        param.zero_grad()
    loss = build(Tensor(x_np))
    if loss.requires_grad:
        loss.backward()
    return loss.data, [param.grad for param in params]


def _assert_replay_equals_eager(plan, build, x_np, params):
    loss, grads = plan.execute({"x": x_np})
    replayed = [plan.grad_for(param, grads) for param in params]
    eager_loss, eager_grads = _eager_step(build, x_np, params)
    assert np.array_equal(loss, eager_loss)
    for got, expected in zip(replayed, eager_grads):
        if expected is None:  # the program never touched this parameter
            assert got is None
        else:
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
    return replayed, eager_grads


class TestDeadCodeElimination:
    def test_metrics_subgraph_dropped_and_parity_kept(self):
        w = Parameter(RNG.standard_normal((4, 4)))

        def build(x):
            h = F.tanh(x @ w)
            # Metrics-only subgraph: recorded, never reaches the loss.
            _accuracy_like = (h * 3.0).sum()
            return (h * h).mean()

        plan = _compile(build, RNG.standard_normal((4, 4)))
        assert len(plan.opt.dropped) >= 2  # the mul-by-3 and its sum
        # Dropped records are exactly the ones outside the loss's ancestry.
        loss_ancestors = set(plan.order)
        for i in plan.opt.dropped:
            out = plan.records[i].out_slot
            assert out is not None and out not in loss_ancestors

        _assert_replay_equals_eager(plan, build, RNG.standard_normal((4, 4)), [w])

    def test_nothing_dropped_when_everything_feeds_loss(self):
        w = Parameter(RNG.standard_normal((3, 3)))
        plan = _compile(
            lambda x: F.sigmoid(x @ w).sum(), RNG.standard_normal((3, 3))
        )
        assert plan.opt.dropped == ()


class TestLivenessAndFusion:
    def _diamond(self):
        rng = np.random.default_rng(11)
        w = Parameter(rng.standard_normal((4, 4)))
        named = {}

        def build(x):
            a = x @ w       # not fusable (matmul), two consumers below
            b = F.tanh(a)   # single-consumer elementwise ...
            c = a * b       # ... adjacent: fuses with b
            named.update(a=a, b=b, c=c)
            return c.sum()

        plan = _compile(build, rng.standard_normal((4, 4)))
        return plan, _slots(plan, **named), build, w

    def test_last_use_indices(self):
        plan, slots, _, _ = self._diamond()
        opt = plan.opt
        # Program: [matmul a], [fused tanh;mul -> c], [sum -> loss].
        assert opt.chains == ((1, 2),)
        assert len(opt.program) == 3
        assert opt.last_read[slots["a"]] == 1  # read by both members of the chain
        assert opt.last_read[slots["c"]] == 2  # read by the final sum
        assert slots["b"] not in opt.last_read  # chain-interior: never hits env
        # The fused instruction releases `a` (its last reader); the sum
        # releases `c`.
        assert slots["a"] in opt.program[1].releases
        assert slots["c"] in opt.program[2].releases

    def test_fused_chain_parity_including_grads(self):
        plan, _, build, w = self._diamond()
        _assert_replay_equals_eager(plan, build, RNG.standard_normal((4, 4)), [w])

    def test_env_entries_released_after_execute(self):
        plan, slots, _, _ = self._diamond()
        plan.execute({"x": RNG.standard_normal((4, 4))})
        env = plan.opt._env
        assert env[slots["a"]] is None
        assert env[slots["c"]] is None
        assert env[plan.loss_slot] is None


class TestBufferArena:
    def _aliased_shapes(self):
        """Two same-shaped intermediates with disjoint lifetimes: the arena
        must serve the second from the first's buffer without corrupting
        either the forward values or the gradients."""
        rng = np.random.default_rng(13)
        w = Parameter(rng.standard_normal((4, 4)))
        named = {}

        def build(x):
            a = x + w       # arena-served; dead after the sum below
            s = a.sum()
            b = x - w       # same shape/dtype as `a`, allocated later
            named.update(a=a, b=b)
            return b.sum() * s

        plan = _compile(build, rng.standard_normal((4, 4)))
        return plan, _slots(plan, **named), build, w

    def test_aliased_shape_reuses_buffer(self):
        plan, slots, _, _ = self._aliased_shapes()
        buf_a = plan.opt.buffer_for[slots["a"]]
        buf_b = plan.opt.buffer_for[slots["b"]]
        assert buf_a is buf_b  # liveness proved `a` dead before `b`'s write

    def test_aliased_shape_parity(self):
        plan, _, build, w = self._aliased_shapes()
        _assert_replay_equals_eager(plan, build, RNG.standard_normal((4, 4)), [w])

    def test_retained_activations_never_pooled(self):
        # exp stashes its *output* for the vjp (ctx.out), so its buffer must
        # never be handed to a later record even when liveness says the env
        # entry is dead.
        rng = np.random.default_rng(17)
        w = Parameter(rng.standard_normal((4, 4)))

        def build(x):
            e = (x * 0.1).exp()
            s = e.sum()
            b = x - w
            return b.sum() * s

        plan = _compile(build, rng.standard_normal((4, 4)))
        _assert_replay_equals_eager(plan, build, RNG.standard_normal((4, 4)), [w])

    def test_grad_buffer_layout_mirrors_unoptimized(self):
        # The unoptimized reference is eager's plain ``astype`` accumulation.
        # A Linear layer's weight gradient (``x @ w.T``: the transpose vjp
        # returns a view) comes out F-contiguous, and eager hands it back
        # that way (``astype`` keeps order='K').  The grad buffers must
        # mirror that layout: reductions downstream of the returned grads —
        # the optimizer's global clip norm — sum in *memory* order, so a
        # C-ordered buffer over the same bits shifts the norm by an ulp and,
        # once clipping fires, the whole run.
        w = Parameter(RNG.standard_normal((8, 8)))

        def build(x):
            return (x @ w.transpose()).sum()

        plan = _compile(build, RNG.standard_normal((8, 8)))
        x2 = RNG.standard_normal((8, 8))
        for _ in range(3):  # steady state: reused buffers, not first-alloc
            (a,), (b,) = _assert_replay_equals_eager(plan, build, x2, [w])
        assert b.flags.f_contiguous and not b.flags.c_contiguous
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert a.flags.f_contiguous == b.flags.f_contiguous
        # The observable contract: the same reduction over the same bits.
        assert repr(np.sum(a**2)) == repr(np.sum(b**2))

    def test_steady_state_reuses_forward_and_grad_buffers(self):
        w = Parameter(RNG.standard_normal((4, 4)))

        def build(x):
            return (F.tanh(x @ w + w) ** 2).sum()

        plan = _compile(build, RNG.standard_normal((4, 4)))
        assert plan.opt.buffer_for
        x2 = RNG.standard_normal((4, 4))
        _, grads_first = plan.execute({"x": x2})
        first = dict(grads_first)
        _, grads_second = plan.execute({"x": x2})
        # Same accumulator objects step over step, with values identical to
        # the eager step.
        for slot, g in grads_second.items():
            assert g is first[slot]
        _, (eager_grad,) = _eager_step(build, x2, [w])
        assert np.array_equal(plan.grad_for(w, grads_second), eager_grad)


# Random-program property: the same op pool the tape parity test uses, plus a
# dead metrics branch, checked replay-vs-eager bitwise.
_PROGRAM_OPS = {
    "matmul0": lambda h, p0, p1: h @ p0,
    "add1": lambda h, p0, p1: h + p1,
    "mul0": lambda h, p0, p1: h * p0,
    "sub1": lambda h, p0, p1: h - p1,
    "div1": lambda h, p0, p1: h / (p1 * p1 + 1.0),
    "tanh": lambda h, p0, p1: F.tanh(h),
    "sigmoid": lambda h, p0, p1: F.sigmoid(h),
    "relu": lambda h, p0, p1: F.relu(h),
    "gelu": lambda h, p0, p1: F.gelu(h),
    "exp": lambda h, p0, p1: (h * 0.25).exp(),
    "scale": lambda h, p0, p1: h * 0.5,
    "square": lambda h, p0, p1: h * h,
    "norm": lambda h, p0, p1: F.l2_normalize(h),
    "softmax": lambda h, p0, p1: F.softmax(h),
}

# Ops safe under the lockstep batch rules; every one is elementwise (all
# appear in real traced models).
_BATCHED_OPS = ["add1", "mul0", "sub1", "tanh", "sigmoid", "relu", "scale", "square"]


def _run_program(codes, x, p0, p1, dead):
    h = x
    for code in codes:
        h = _PROGRAM_OPS[code](h, p0, p1)
    if dead:
        _ = (h * 3.0).sum()  # metrics-only: DCE fodder
    return (h * h).mean()


class TestRandomProgramProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        codes=st.lists(st.sampled_from(sorted(_PROGRAM_OPS)), min_size=1, max_size=8),
        dead=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_optimized_replay_bitwise_equals_unoptimized_and_eager(
        self, codes, dead, seed
    ):
        """The unoptimized reference *is* the eager step: no DCE, no fusion,
        no arena — there is no second plan interpreter to compare against."""
        rng = np.random.default_rng(seed)
        p0 = Parameter(rng.standard_normal((4, 4)))
        p1 = Parameter(rng.standard_normal((4, 4)))

        def build(x):
            return _run_program(codes, x, p0, p1, dead)

        plan = _compile(build, rng.standard_normal((4, 4)))
        _assert_replay_equals_eager(plan, build, rng.standard_normal((4, 4)), [p0, p1])

    @settings(max_examples=25, deadline=None)
    @given(
        codes=st.lists(st.sampled_from(_BATCHED_OPS), min_size=1, max_size=6),
        reduce=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_optimized_batched_replay_bitwise_equals_unoptimized(
        self, codes, reduce, seed
    ):
        """Row ``i`` of a lockstep replay is client ``i``'s eager step: bitwise
        while the whole program is elementwise, and within the batched path's
        accumulation-order tolerance once a stacked matmul and a reduction
        (``reduce=True``) are in the graph."""
        rng = np.random.default_rng(seed)
        k = 3
        p0 = Parameter(rng.standard_normal((4, 4)))
        p1 = Parameter(rng.standard_normal((4, 4)))

        def program(x, q0, q1):
            if reduce:
                return _run_program(codes, x @ q0, q0, q1, dead=False)
            h = x + q0
            for code in codes:
                h = _PROGRAM_OPS[code](h, q0, q1)
            return h

        plan = _compile(lambda x: program(x, p0, p1), rng.standard_normal((4, 4)))
        # A program may never touch p1, in which case it has no leaf slot.
        leaves = list(plan.param_leaves)
        plan.prepare_batched([slot for slot, _ in leaves])
        stacks = {slot: rng.standard_normal((k,) + p.data.shape) for slot, p in leaves}
        x_stack = rng.standard_normal((k, 4, 4))
        loss_rows, grad_rows = plan.execute_batched(
            k, {"x": x_stack}, {slot: s.copy() for slot, s in stacks.items()}
        )

        def check(row, expected):
            if reduce:
                scale = max(1.0, float(np.abs(expected).max()))
                np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12 * scale)
            else:
                assert np.array_equal(row, expected)

        for i in range(k):
            client = {
                slot: Parameter(stacks[slot][i].copy()) for slot, _ in leaves
            }
            by_param = {id(p): client[slot] for slot, p in leaves}
            loss = program(
                Tensor(x_stack[i]),
                by_param.get(id(p0), p0),
                by_param.get(id(p1), p1),
            )
            loss.backward(np.ones_like(loss.data))
            check(loss_rows[i], loss.data)
            for slot, param in client.items():
                if param.grad is None:
                    assert slot not in grad_rows
                else:
                    check(grad_rows[slot][i], param.grad)


class TestPlanCacheLRU:
    def test_eviction_order_and_counters(self):
        cache = PlanCache(max_plans=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: `b` becomes LRU
        cache.put("c", 3)  # evicts `b`
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert (cache.hits, cache.misses) == (3, 1)

    def test_put_refreshes_recency(self):
        cache = PlanCache(max_plans=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes `a`
        cache.put("c", 3)  # evicts `b`, not `a`
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            PlanCache(max_plans=0)


class TestFingerprintMemo:
    def _model(self):
        return Linear(3, 2, rng=np.random.default_rng(0))

    def test_memo_hit_returns_same_tuple(self):
        model = self._model()
        first = model_fingerprint(model)
        assert model_fingerprint(model) is first  # served from the memo

    def test_in_place_update_keeps_memo_valid(self):
        model = self._model()
        first = model_fingerprint(model)
        model.weight.data[...] += 1.0  # the SGD-step case: same storage
        assert model_fingerprint(model) is first

    def test_trainability_flip_invalidates(self):
        model = self._model()
        before = model_fingerprint(model)
        model.weight.requires_grad = False
        after = model_fingerprint(model)
        assert after != before

    def test_data_rebind_invalidates_probe(self):
        model = self._model()
        before = model_fingerprint(model)
        model.weight.data = model.weight.data.astype(np.float32)
        after = model_fingerprint(model)
        assert after != before  # dtype row changed, rebuilt not served stale

    def test_structure_change_invalidates(self):
        model = self._model()
        before = model_fingerprint(model)
        model.extra = Linear(2, 2, rng=np.random.default_rng(1))
        after = model_fingerprint(model)
        assert len(after) == len(before) + 2  # extra weight + bias rows

    def test_collected_model_evicted_from_memo(self):
        model = self._model()
        model_fingerprint(model)
        key = id(model)
        assert key in _FINGERPRINTS
        del model
        gc.collect()
        assert key not in _FINGERPRINTS

    def test_non_module_falls_back(self):
        class Bag:
            def __init__(self):
                self._p = Parameter(np.ones((2, 2)))

            def named_parameters(self):
                yield "p", self._p

        assert model_fingerprint(Bag()) == (("p", (2, 2), "float64", True),)
