"""The six fused transformer-layer ops: LAYER_NORM, GELU, SOFTMAX, LOG_SOFTMAX, LINEAR, ATTENTION.

Each is one primitive :class:`~repro.autograd.tape.Op` with a hand-written
vjp.  The composed graphs they replaced live on here as the reference: the
fused forward must agree with them to 1e-12 and the gradients to 1e-10
(ATTENTION makes the composed graph's NumPy calls in its order, so it must
agree bit for bit), and both interpreters of the op table (eager, the serving
plane's forward-only plan) must run them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, default_dtype, functional as F
from repro.autograd.grad_check import check_gradient
from repro.autograd.tape import Tape, tracing
from repro.nn.module import Parameter


# --------------------------------------------------------------------------- #
# The composed graphs the ops replaced (moved here from functional.py)
# --------------------------------------------------------------------------- #
def composed_gelu(x):
    inner = (x + x * x * x * 0.044715) * 0.7978845608028654
    return x * 0.5 * (inner.tanh() + 1.0)


def composed_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def composed_log_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def composed_linear(x, weight, bias=None):
    out = x @ weight.T
    return out if bias is None else out + bias


def composed_layer_norm(x, weight=None, bias=None, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mean) / (var + eps).sqrt()
    if weight is not None:
        normed = normed * weight
    if bias is not None:
        normed = normed + bias
    return normed


def composed_attention(q, k, v, heads, scale):
    """``MultiHeadSelfAttention``'s core as the 13 ops it was between its four LINEARs."""
    batch, tokens, dim = q.shape

    def split_heads(x):  # (B, T, D) -> (B, H, T, Dh)
        return x.reshape(batch, tokens, heads, dim // heads).transpose(0, 2, 1, 3)

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    weights = F.softmax((q @ k.transpose(0, 1, 3, 2)) * scale, axis=-1)
    return (weights @ v).transpose(0, 2, 1, 3).reshape(batch, tokens, dim)


DTYPES = [np.float64, np.float32]
#: forward / gradient agreement with the composed reference, per dtype
TOLERANCE = {np.float64: (1e-12, 1e-10), np.float32: (1e-5, 1e-4)}
#: finite-difference step and tolerances for ``check_gradient``, per dtype
GRAD_CHECK = {
    np.float64: dict(eps=1e-5, atol=1e-4, rtol=1e-3),
    np.float32: dict(eps=1e-2, atol=1e-2, rtol=5e-2),
}


def _compare(fused, composed, arrays, dtype):
    """Forward and every input gradient of ``fused`` against ``composed``."""
    forward_tol, grad_tol = TOLERANCE[dtype]
    with default_dtype(dtype):
        fused_inputs = [Tensor(a, requires_grad=True) for a in arrays]
        composed_inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = fused(*fused_inputs)
        expected = composed(*composed_inputs)
        assert out.dtype == expected.dtype == np.dtype(dtype)
        np.testing.assert_allclose(out.data, expected.data, rtol=0, atol=forward_tol)
        # A non-uniform seed so no gradient term cancels by symmetry.
        seed = np.cos(np.arange(out.data.size)).reshape(out.shape)
        out.backward(seed)
        expected.backward(seed)
        for got, want in zip(fused_inputs, composed_inputs):
            assert got.grad.shape == want.grad.shape
            assert got.grad.dtype == want.grad.dtype
            # Rounding error grows with the gradient's size (a near-constant
            # row divides by a tiny std), so the tolerance does too.
            scale = max(1.0, float(np.abs(want.grad).max(initial=0.0)))
            np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=grad_tol * scale)


def _compare_bits(fused, composed, arrays, dtype):
    """Forward and every input gradient of ``fused`` equal ``composed``'s byte for byte."""
    with default_dtype(dtype):
        fused_inputs = [Tensor(a, requires_grad=True) for a in arrays]
        composed_inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = fused(*fused_inputs)
        expected = composed(*composed_inputs)
        assert out.dtype == expected.dtype == np.dtype(dtype)
        assert out.shape == expected.shape
        assert out.data.tobytes() == expected.data.tobytes()
        seed = np.cos(np.arange(out.data.size)).reshape(out.shape)
        out.backward(seed)
        expected.backward(seed)
        for got, want in zip(fused_inputs, composed_inputs):
            assert got.grad.dtype == want.grad.dtype and got.grad.shape == want.grad.shape
            assert got.grad.tobytes() == want.grad.tobytes()


def _attention_arrays(rng, batch, tokens, heads, head_dim):
    shape = (batch, tokens, heads * head_dim)
    return [2.0 * rng.standard_normal(shape) for _ in range(3)]


#: Examples per property: 25 in tier-1, the loaded profile's count (1,000)
#: under ``HYPOTHESIS_PROFILE=deep``, CI's bit-identity sweep.
EXAMPLES = 25 if settings.default.max_examples <= 100 else settings.default.max_examples

leading_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2**16)


@pytest.mark.parametrize("dtype", DTYPES)
class TestMatchesComposedReference:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(lead=leading_shapes, width=st.integers(2, 6), affine=st.integers(0, 2), seed=seeds)
    # A width-2 row with near-equal features: float32 gradients of 1.2 that
    # differ from the reference by 1.13e-4.
    @example(lead=(2,), width=2, affine=1, seed=321)
    def test_layer_norm(self, dtype, lead, width, affine, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(lead + (width,))]
        arrays += [rng.uniform(0.5, 1.5, width), rng.standard_normal(width)][:affine]
        _compare(F.layer_norm, composed_layer_norm, arrays, dtype)

    def test_layer_norm_bias_without_weight(self, dtype):
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal((3, 5)), rng.standard_normal(5)]
        _compare(
            lambda x, b: F.layer_norm(x, None, b),
            lambda x, b: composed_layer_norm(x, None, b),
            arrays,
            dtype,
        )

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        lead=leading_shapes,
        features=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        with_bias=st.booleans(),
        seed=seeds,
    )
    def test_linear(self, dtype, lead, features, with_bias, seed):
        rng = np.random.default_rng(seed)
        fan_in, fan_out = features
        arrays = [rng.standard_normal(lead + (fan_in,)), rng.standard_normal((fan_out, fan_in))]
        if with_bias:
            arrays.append(rng.standard_normal(fan_out))
        _compare(F.linear, composed_linear, arrays, dtype)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple),
        axis_draw=st.integers(0, 7),
        log=st.booleans(),
        seed=seeds,
    )
    def test_softmax_and_log_softmax_any_axis(self, dtype, shape, axis_draw, log, seed):
        axis = axis_draw % (2 * len(shape)) - len(shape)  # every negative and positive axis
        fused, composed = (
            (F.log_softmax, composed_log_softmax) if log else (F.softmax, composed_softmax)
        )
        x = 3.0 * np.random.default_rng(seed).standard_normal(shape)
        _compare(lambda t: fused(t, axis=axis), lambda t: composed(t, axis=axis), [x], dtype)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple), seed=seeds)
    def test_gelu(self, dtype, shape, seed):
        x = 2.0 * np.random.default_rng(seed).standard_normal(shape)
        _compare(F.gelu, composed_gelu, [x], dtype)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        batch=st.integers(1, 4),
        tokens=st.integers(1, 6),
        heads=st.integers(1, 3),
        head_dim=st.integers(1, 4),
        seed=seeds,
    )
    @example(batch=1, tokens=1, heads=1, head_dim=1, seed=0)
    @example(batch=1, tokens=1, heads=1, head_dim=4, seed=1)
    def test_attention(self, dtype, batch, tokens, heads, head_dim, seed):
        arrays = _attention_arrays(np.random.default_rng(seed), batch, tokens, heads, head_dim)
        scale = 1.0 / np.sqrt(head_dim)
        _compare_bits(
            lambda q, k, v: F.attention(q, k, v, heads, scale),
            lambda q, k, v: composed_attention(q, k, v, heads, scale),
            arrays,
            dtype,
        )

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_a_transformer_block_trains_bit_for_bit_as_it_did_composed(self, dtype, heads, monkeypatch):
        """Through a whole block the attention inputs' gradients are sums (the
        block input feeds q, k, v and the residual; each parameter serves two
        calls), and the fused graph must walk them in the composed order."""
        from repro.nn.attention import MultiHeadSelfAttention, TransformerBlock

        def composed_forward(self, x):
            q, k, v = self.query(x), self.key(x), self.value(x)
            return self.proj(composed_attention(q, k, v, self.num_heads, self.scale))

        def run():
            with default_dtype(dtype):
                rng = np.random.default_rng(heads)
                block = TransformerBlock(8, num_heads=heads, rng=rng)
                x = Tensor(rng.standard_normal((3, 5, 8)), requires_grad=True)
                out = block(block(x))  # every parameter used twice
                out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape))
            return [out.data, x.grad] + [p.grad for p in block.parameters()]

        fused = run()
        monkeypatch.setattr(MultiHeadSelfAttention, "forward", composed_forward)
        composed = run()
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in composed]

    def test_attention_refuses_bad_shapes_before_computing(self, dtype):
        with default_dtype(dtype):
            x = Tensor(np.ones((2, 3, 4)))
            for q, k, v, heads in [
                (x, x, Tensor(np.ones((2, 3, 6))), 2),  # v wider
                (x, Tensor(np.ones((2, 4, 4))), x, 2),  # k longer
                (Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), 2),
                (x, x, x, 3),  # D = 4 does not split into 3 heads
                (x, x, x, 0),
            ]:
                with pytest.raises(ValueError, match="attention"):
                    F.attention(q, k, v, heads, 0.5)

    @pytest.mark.parametrize(
        "fused,composed",
        [(F.softmax, composed_softmax), (F.log_softmax, composed_log_softmax)],
    )
    def test_equal_and_huge_logits_stay_finite(self, dtype, fused, composed):
        # float32 overflows exp() past ~88 and float64 past ~709: a 700-magnitude
        # logit is only survivable through the max shift.
        x = np.array([[2.5, 2.5, 2.5, 2.5], [700.0, -700.0, 0.0, 699.0], [-700.0, -700.0, 1.0, 0.0]])
        with default_dtype(dtype), np.errstate(over="raise", invalid="raise", divide="raise"):
            t = Tensor(x, requires_grad=True)
            out = fused(t)
            out.backward(np.cos(np.arange(12.0)).reshape(3, 4))
        assert np.isfinite(out.data).all() and np.isfinite(t.grad).all()
        uniform = np.full(4, 0.25)
        row0 = np.exp(out.data[0]) if fused is F.log_softmax else out.data[0]
        np.testing.assert_allclose(row0, uniform, rtol=1e-6)
        _compare(fused, composed, [x], dtype)


@pytest.mark.parametrize("dtype", DTYPES)
class TestGradCheck:
    def _check(self, fn, arrays, dtype):
        with default_dtype(dtype):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            for wrt in range(len(inputs)):
                assert check_gradient(fn, inputs, wrt=wrt, **GRAD_CHECK[dtype]), wrt

    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(1)
        weights = Tensor(np.cos(np.arange(24.0)).reshape(2, 3, 4))
        arrays = [rng.standard_normal((2, 3, 4)), rng.uniform(0.5, 1.5, 4), rng.standard_normal(4)]
        for count in (1, 2, 3):
            self._check(lambda *a: (F.layer_norm(*a) * weights).sum(), arrays[:count], dtype)

    def test_gelu(self, dtype):
        x = np.random.default_rng(2).standard_normal((3, 4))
        self._check(lambda t: (F.gelu(t) * F.gelu(t)).sum(), [x], dtype)

    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_softmax(self, dtype, axis):
        x = np.random.default_rng(3).standard_normal((3, 2, 4))
        weights = Tensor(np.cos(np.arange(24.0)).reshape(3, 2, 4))
        self._check(lambda t: (F.softmax(t, axis=axis) * weights).sum(), [x], dtype)

    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_log_softmax(self, dtype, axis):
        x = np.random.default_rng(4).standard_normal((3, 2, 4))
        weights = Tensor(np.cos(np.arange(24.0)).reshape(3, 2, 4))
        self._check(lambda t: (F.log_softmax(t, axis=axis) * weights).sum(), [x], dtype)

    @pytest.mark.parametrize("lead", [(3,), (2, 3), (2, 2, 3)])
    def test_linear(self, dtype, lead):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(lead + (4,)), rng.standard_normal((2, 4)), rng.standard_normal(2)]
        for count in (2, 3):
            self._check(lambda *a: (F.linear(*a) * F.linear(*a)).sum(), arrays[:count], dtype)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention(self, dtype, heads):
        arrays = _attention_arrays(np.random.default_rng(7), 2, 3, heads, 2)
        weights = Tensor(np.cos(np.arange(12.0 * heads)).reshape(2, 3, 2 * heads))
        self._check(lambda *a: (F.attention(*a, heads, 0.7) * weights).sum(), arrays, dtype)

    def test_attention_needs_are_honoured(self, dtype):
        # Each frozen projection gets no gradient; the others get the same bits.
        rng = np.random.default_rng(8)
        arrays = _attention_arrays(rng, 2, 3, 2, 2)
        seed = rng.standard_normal((2, 3, 4))
        with default_dtype(dtype):
            everything = [Tensor(a, requires_grad=True) for a in arrays]
            F.attention(*everything, 2, 0.7).backward(seed)
            for frozen in range(3):
                inputs = [Tensor(a, requires_grad=i != frozen) for i, a in enumerate(arrays)]
                F.attention(*inputs, 2, 0.7).backward(seed)
                for i, (got, want) in enumerate(zip(inputs, everything)):
                    if i == frozen:
                        assert got.grad is None
                    else:
                        assert got.grad.tobytes() == want.grad.tobytes()

    def test_needs_are_honoured(self, dtype):
        # A frozen input gets no gradient and costs no vjp work.
        with default_dtype(dtype):
            x = Tensor(np.random.default_rng(6).standard_normal((3, 4)))
            weight = Tensor(np.ones((2, 4)), requires_grad=True)
            gamma = Tensor(np.ones(4))
            beta = Tensor(np.zeros(4), requires_grad=True)
            F.linear(F.layer_norm(x, gamma, beta), weight).sum().backward()
        assert x.grad is None and gamma.grad is None
        assert weight.grad is not None and beta.grad is not None


# --------------------------------------------------------------------------- #
# One step that uses all five ops, for the tape and serving checks
# --------------------------------------------------------------------------- #
N, TOKENS, DIM, CLASSES = 4, 3, 6, 5
#: a shared, never trained projection
FROZEN = Tensor(np.random.default_rng(99).standard_normal((DIM, DIM)) * 0.3)


def _params(rng):
    return {
        "proj": Parameter(0.4 * rng.standard_normal((DIM, DIM))),
        "proj_bias": Parameter(0.1 * rng.standard_normal(DIM)),
        "gamma": Parameter(rng.uniform(0.5, 1.5, DIM)),
        "beta": Parameter(0.1 * rng.standard_normal(DIM)),
        "scale_only": Parameter(rng.uniform(0.5, 1.5, DIM)),
        "head": Parameter(0.4 * rng.standard_normal((CLASSES, DIM))),
    }


def _step(params, x, labels):
    h = F.linear(x, params["proj"], params["proj_bias"])  # (N, T, D), 3-D input
    h = F.layer_norm(F.gelu(h), params["gamma"], params["beta"])
    attention = F.softmax(h @ h.transpose(0, 2, 1), axis=-1)  # (N, T, T)
    mixing = F.softmax(F.linear(h, FROZEN), axis=1)  # over tokens: a non-last axis
    h = F.layer_norm(attention @ h * mixing, params["scale_only"])
    pooled = F.layer_norm(h.mean(axis=1))  # (N, D), no affine
    return F.nll_loss(F.log_softmax(F.linear(pooled, params["head"]), axis=-1), labels)


def _batches(rng, count):
    return [
        (rng.standard_normal((N, TOKENS, DIM)), rng.integers(0, CLASSES, N)) for _ in range(count)
    ]


class TestTapeRecords:
    def test_all_five_ops_are_on_the_tape_as_single_records(self):
        rng = np.random.default_rng(10)
        x_np, labels = _batches(rng, 1)[0]
        tape = Tape()
        with tracing(tape):
            _step(_params(rng), Tensor(x_np), labels)
        names = [rec.op.name for rec in tape.records]
        assert names.count("linear") == 3
        assert names.count("layer_norm") == 3
        assert names.count("softmax") == 2
        assert names.count("gelu") == names.count("log_softmax") == 1


    def test_self_attention_is_five_records(self):
        from repro.nn.attention import MultiHeadSelfAttention

        attention = MultiHeadSelfAttention(DIM, num_heads=2, rng=np.random.default_rng(11))
        tape = Tape()
        with tracing(tape):
            attention(Tensor(_batches(np.random.default_rng(12), 1)[0][0]))
        assert [rec.op.name for rec in tape.records] == ["linear"] * 3 + ["attention", "linear"]


class TestServingForwardPlan:
    def test_forward_plan_compiles_all_five_and_serves_identical_logits(self):
        from repro.autograd import no_grad
        from repro.serving.engine import ForwardPlan

        rng = np.random.default_rng(14)
        params = _params(rng)

        def predict(x):
            h = F.layer_norm(F.gelu(F.linear(x, params["proj"], params["proj_bias"])),
                             params["gamma"], params["beta"])
            h = F.softmax(h @ h.transpose(0, 2, 1), axis=-1) @ h
            return F.log_softmax(F.linear(h.mean(axis=1), params["head"]), axis=-1)

        (x_np, _), (other, _) = _batches(rng, 2)
        with no_grad():
            tape = Tape()
            x = Tensor(x_np)
            tape.mark_input("images", x)
            with tracing(tape):
                logits = predict(x)
            plan = ForwardPlan(tape, logits)
            names = {rec.op.name for rec in tape.records}
            assert {"linear", "gelu", "layer_norm", "softmax", "log_softmax"} <= names
            for batch in (x_np, other, x_np):
                assert np.array_equal(plan.run(batch), predict(Tensor(batch)).data)

    def test_forward_plan_replays_attention_and_serves_identical_logits(self):
        from repro.autograd import no_grad
        from repro.nn.attention import TransformerBlock
        from repro.serving.engine import ForwardPlan

        rng = np.random.default_rng(15)
        block = TransformerBlock(DIM, num_heads=3, rng=rng)
        head = Parameter(0.4 * rng.standard_normal((CLASSES, DIM)))

        def predict(x):
            return F.linear(block(x).mean(axis=1), head)

        (x_np, _), (other, _) = _batches(rng, 2)
        with no_grad():
            tape = Tape()
            x = Tensor(x_np)
            tape.mark_input("images", x)
            with tracing(tape):
                logits = predict(x)
            plan = ForwardPlan(tape, logits)
            assert [rec.op.name for rec in tape.records].count("attention") == 1
            for batch in (x_np, other, x_np):
                assert plan.run(batch).tobytes() == predict(Tensor(batch)).data.tobytes()
