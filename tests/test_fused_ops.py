"""The fused layer ops: LAYER_NORM, GELU, SOFTMAX, LOG_SOFTMAX, LINEAR, ATTENTION and CONV_BN.

Each is one primitive :class:`~repro.autograd.tape.Op` with a hand-written
vjp.  The composed graphs they replaced live on here as the reference: the
fused forward must agree with them to 1e-12 and the gradients to 1e-10
(ATTENTION and CONV_BN make the composed graph's NumPy calls in its order, so
they must agree bit for bit), and both interpreters of the op table (eager,
the serving plane's forward-only plan) must run them.  The transformer block
computes the [CLS] row only; the full-sequence block it replaced lives on here
too, as the oracle whose row 0 the block must match.  A ResNet layer (conv,
batch norm, residual add, ReLU) is one CONV_BN; the batch-norm and ReLU ops it
replaced live on here, and the composed layer built from them is its oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, default_dtype, functional as F
from repro.autograd.grad_check import check_gradient
from repro.autograd.tape import Op, Tape, tracing
from repro.autograd.tensor import apply_op
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
    """``ClassAttention``'s core as the 13 ops it was between its four LINEARs."""
    batch, rows, dim = q.shape

    def split_heads(x):  # (B, T, D) -> (B, H, T, Dh)
        return x.reshape(batch, x.shape[1], heads, dim // heads).transpose(0, 2, 1, 3)

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    weights = F.softmax((q @ k.transpose(0, 1, 3, 2)) * scale, axis=-1)
    return (weights @ v).transpose(0, 2, 1, 3).reshape(batch, rows, dim)


def full_sequence_block(block, tokens):
    """The transformer block as it was before it computed [CLS] only: every
    token's row through every layer, ``(B, T, D)`` in and out."""
    attention = block.attention
    q, k, v = attention.query(tokens), attention.key(tokens), attention.value(tokens)
    context = F.attention(q, k, v, attention.num_heads, attention.scale)
    attended = block.norm_attention(attention.proj(context))
    return block.norm_out(tokens + attended + block.mlp(attended))


def _per_channel(stat):
    return stat.reshape(-1, 1, 1, 1)


def _batch_norm_forward(
    ctx, x, weight, bias, *, running_mean, running_var, training, momentum, eps
):
    ctx.training = training
    ctx.weight = weight
    if training:
        count = x.size // x.shape[0]
        mean = np.einsum("chwn->c", x) / count
        xhat = x - _per_channel(mean)
        var = np.einsum("chwn,chwn->c", xhat, xhat) / count
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= _per_channel(inv_std)
        out = xhat * _per_channel(weight)
        out += _per_channel(bias)
        ctx.count = count
        ctx.xhat = xhat
        ctx.inv_std = inv_std
        return out
    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale = weight * inv_std
    out = x * _per_channel(scale)
    out += _per_channel(bias - running_mean * scale)
    ctx.x = x
    ctx.mean = running_mean
    ctx.inv_std = inv_std
    return out


def _batch_norm_vjp(ctx, grad, needs):
    need_x, need_w, need_b = needs
    training = ctx.training
    grad_x = grad_w = grad_b = None
    if need_b or (need_x and training):
        grad_b = np.einsum("chwn->c", grad)
    if need_w or (need_x and training):
        if training:
            xhat = ctx.xhat
        else:
            xhat = (ctx.x - _per_channel(ctx.mean)) * _per_channel(ctx.inv_std)
        grad_w = np.einsum("chwn,chwn->c", grad, xhat)
    if need_x:
        scale = ctx.weight * ctx.inv_std
        if training:
            grad_x = xhat * _per_channel(grad_w / ctx.count)
            np.subtract(grad, grad_x, out=grad_x)
            grad_x -= _per_channel(grad_b / ctx.count)
            grad_x *= _per_channel(scale)
        else:
            grad_x = grad * _per_channel(scale)
    return (grad_x, grad_w if need_w else None, grad_b if need_b else None)


def _relu_forward(ctx, a):
    mask = a > 0
    ctx.mask = mask
    return a * mask


def _relu_vjp(ctx, grad, needs):
    return (grad * ctx.mask,)


#: The standalone ops a ResNet layer dispatched before CONV_BN (moved here from
#: functional.py and tape.py).
BATCH_NORM = Op("batch_norm", _batch_norm_forward, _batch_norm_vjp)
RELU = Op("relu", _relu_forward, _relu_vjp)


def composed_conv_bn(
    x, weight, gamma, beta, residual=None, *,
    stride, padding, running_mean, running_var, training, momentum=0.1, eps=1e-5, relu,
):
    """``F.conv_bn`` as the four ops it was: conv2d, batch_norm, add, relu."""
    out = apply_op(
        BATCH_NORM,
        (F.conv2d(x, weight, stride=stride, padding=padding), gamma, beta),
        running_mean=running_mean,
        running_var=running_var,
        training=training,
        momentum=momentum,
        eps=eps,
    )
    if residual is not None:
        out = out + residual
    return apply_op(RELU, (out,)) if relu else out


def composed_resnet_forward(net, x):
    """``ResNet10.forward`` as it was: every layer four ops over its modules."""

    def layer(conv, bn, x, residual=None, relu=True):
        return composed_conv_bn(
            x, conv.weight, bn.weight, bn.bias, residual,
            stride=conv.stride, padding=conv.padding, running_mean=bn.running_mean,
            running_var=bn.running_var, training=bn.training, momentum=bn.momentum,
            eps=bn.eps, relu=relu,
        )

    out = layer(net.stem_conv, net.stem_bn, x.transpose(1, 2, 3, 0))
    for block in net.blocks:
        inner = layer(block.conv1, block.bn1, out)
        inner = layer(block.conv2, block.bn2, inner, relu=False)
        shortcut = out
        if block.shortcut_conv is not None:
            shortcut = layer(block.shortcut_conv, block.shortcut_bn, out, relu=False)
        out = apply_op(RELU, (inner + shortcut,))
    return out


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


def _attention_arrays(rng, batch, tokens, heads, head_dim, rows=None):
    """q of ``rows`` rows (``tokens`` when None), k and v of ``tokens`` rows."""
    shape = (batch, tokens, heads * head_dim)
    q = 2.0 * rng.standard_normal((batch, tokens if rows is None else rows, heads * head_dim))
    return [q] + [2.0 * rng.standard_normal(shape) for _ in range(2)]


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
        rows=st.integers(0, 5),
        seed=seeds,
    )
    @example(batch=1, tokens=1, heads=1, head_dim=1, rows=0, seed=0)
    @example(batch=1, tokens=1, heads=1, head_dim=4, rows=0, seed=1)
    @example(batch=2, tokens=6, heads=2, head_dim=3, rows=0, seed=2)  # the block's [CLS] query
    def test_attention(self, dtype, batch, tokens, heads, head_dim, rows, seed):
        # A query of 1 to ``tokens`` rows: the full square and every shorter one.
        rng = np.random.default_rng(seed)
        arrays = _attention_arrays(rng, batch, tokens, heads, head_dim, rows=1 + rows % tokens)
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
        block input feeds the [CLS] query, the residual, k and v), and the
        fused graph must walk them in the composed order."""
        from repro.nn.attention import ClassAttention, TransformerBlock

        def composed_forward(self, cls, tokens):
            q, k, v = self.query(cls), self.key(tokens), self.value(tokens)
            return self.proj(composed_attention(q, k, v, self.num_heads, self.scale))

        def run():
            with default_dtype(dtype):
                rng = np.random.default_rng(heads)
                block = TransformerBlock(8, num_heads=heads, rng=rng)
                x = Tensor(rng.standard_normal((3, 5, 8)), requires_grad=True)
                out = block(x)
                assert out.shape == (3, 8)
                out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape))
            return [out.data, x.grad] + [p.grad for p in block.parameters()]

        fused = run()
        monkeypatch.setattr(ClassAttention, "forward", composed_forward)
        composed = run()
        assert [a.tobytes() for a in fused] == [a.tobytes() for a in composed]

    def test_attention_refuses_bad_shapes_before_computing(self, dtype):
        with default_dtype(dtype):
            x = Tensor(np.ones((2, 3, 4)))
            longer = Tensor(np.ones((2, 5, 4)))
            # A query shorter than its keys is the block's [CLS] query.
            assert F.attention(x, longer, longer, 2, 0.5).shape == (2, 3, 4)
            for q, k, v, heads in [
                (x, x, Tensor(np.ones((2, 3, 6))), 2),  # v wider
                (x, longer, x, 2),  # k longer than v
                (x, x, longer, 2),  # v longer than k
                (Tensor(np.ones((3, 3, 4))), x, x, 2),  # q of another batch
                (Tensor(np.ones((2, 1, 6))), x, x, 2),  # q of another width
                (Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), 2),
                (x, Tensor(np.ones((2, 3, 4, 1))), Tensor(np.ones((2, 3, 4, 1))), 2),
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


class TestClsOnlyBlockMatchesFullSequence:
    """The block computes the [CLS] row only; the full-sequence block above is
    its oracle.  Forward, input gradient and every parameter gradient for a
    loss on row 0 agree with the oracle's row 0 at float64 to rtol 1e-12, with
    an absolute floor of 1e-12 of each array's largest entry: only rounding
    differs (a 1-row GEMM against the full one, and the oracle's sums carry the
    other rows' zero terms)."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        batch=st.integers(1, 4),
        tokens=st.integers(1, 7),
        heads=st.sampled_from([1, 2, 4]),
        # D >= 3: a layer norm over 1 or 2 features is constant, and its
        # input's gradient is rounding noise with no scale to compare against.
        head_dim=st.integers(3, 4),
        seed=seeds,
    )
    @example(batch=3, tokens=5, heads=1, head_dim=4, seed=0)
    @example(batch=3, tokens=5, heads=2, head_dim=4, seed=0)
    @example(batch=3, tokens=5, heads=4, head_dim=4, seed=0)
    def test_cls_row_matches_the_full_sequence_blocks_row_0(self, batch, tokens, heads, head_dim, seed):
        from repro.nn.attention import TransformerBlock

        dim = heads * head_dim
        x_np = np.random.default_rng(seed).standard_normal((batch, tokens, dim))
        seed_grad = np.cos(np.arange(batch * dim)).reshape(batch, dim)

        def run(forward):
            with default_dtype(np.float64):
                block = TransformerBlock(dim, num_heads=heads, rng=np.random.default_rng(seed))
                x = Tensor(x_np, requires_grad=True)
                out = forward(block, x)
                out.backward(seed_grad)
            return {"out": out.data, "x.grad": x.grad, **{
                name: p.grad for name, p in block.named_parameters()
            }}

        got = run(lambda block, x: block(x))
        want = run(lambda block, x: full_sequence_block(block, x)[:, 0, :])
        assert got.keys() == want.keys()
        # A bias shared by every key shifts all of a query's scores alike, and
        # softmax ignores that: its gradient is zero up to rounding, so it is
        # held to 1e-12 of the largest entry compared.
        noise = 1e-12 * max(float(np.abs(w).max()) for w in want.values())
        for name, w in want.items():
            g = got[name]
            assert g.shape == w.shape and g.dtype == w.dtype == np.float64, name
            if name == "attention.key.bias":
                assert np.abs(g).max() <= noise and np.abs(w).max() <= noise
                continue
            scale = float(np.abs(w).max(initial=0.0))
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


#: The ResNet's conv geometries, ``(kernel, padding)``: the 3x3 layers and the
#: 1x1 shortcut, each drawn at stride 1 and 2.
LAYER_GEOMETRIES = [(3, 1), (1, 0)]


def _layer_case(rng, channels, size, batch, kernel, padding, stride, residual):
    """The op's arrays ``x, weight, gamma, beta[, residual]`` and its two running buffers."""
    c_in, c_out = channels
    out_size = (size + 2 * padding - kernel) // stride + 1
    arrays = [
        rng.standard_normal((c_in, size, size, batch)),
        rng.standard_normal((c_out, c_in, kernel, kernel)) / np.sqrt(c_in * kernel * kernel),
        rng.uniform(0.5, 1.5, c_out),
        0.5 * rng.standard_normal(c_out),
    ]
    if residual:
        arrays.append(rng.standard_normal((c_out, out_size, out_size, batch)))
    return arrays, (0.3 * rng.standard_normal(c_out), rng.uniform(0.5, 2.0, c_out))


def _run_layer(fn, arrays, running, dtype, *, requires=None, **kwargs):
    """Forward, backward of a non-uniform seed: output, every input's grad, both buffers."""
    requires = requires or [True] * len(arrays)
    with default_dtype(dtype):
        inputs = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
        mean, var = (np.asarray(b, dtype=dtype) for b in running)
        residual = inputs[4:] or [None]
        out = fn(*inputs[:4], residual[0], running_mean=mean, running_var=var, **kwargs)
        out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape).astype(dtype))
    return [out.data] + [t.grad for t in inputs] + [mean, var]


def _assert_bits(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        if w is None:
            assert g is None, i
            continue
        assert g.dtype == w.dtype and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), i


@pytest.mark.parametrize("dtype", DTYPES)
class TestLayerOpMatchesComposed:
    """CONV_BN against the conv2d, batch_norm, add and relu ops it replaced: the
    forward, every input's gradient and both running buffers, bit for bit."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        geometry=st.sampled_from(LAYER_GEOMETRIES),
        stride=st.integers(1, 2),
        channels=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        size=st.integers(1, 6),
        batch=st.integers(1, 4),
        training=st.booleans(),
        residual=st.booleans(),
        relu=st.booleans(),
        seed=seeds,
    )
    @example((3, 1), 2, (4, 4), 4, 3, True, True, True, 0)  # a strided block's conv1 shape
    @example((1, 0), 2, (2, 4), 4, 3, True, False, False, 1)  # its 1x1 shortcut
    @example((3, 1), 1, (4, 4), 4, 3, False, True, True, 2)  # eval-mode conv2 + residual
    @example((3, 1), 1, (1, 1), 1, 1, True, False, True, 3)  # one value per channel
    def test_a_layer_is_the_composed_layer_bit_for_bit(
        self, dtype, geometry, stride, channels, size, batch, training, residual, relu, seed
    ):
        (kernel, padding), rng = geometry, np.random.default_rng(seed)
        arrays, running = _layer_case(rng, channels, size, batch, kernel, padding, stride, residual)
        kwargs = dict(stride=stride, padding=padding, training=training, relu=relu)
        got = _run_layer(F.conv_bn, arrays, running, dtype, **kwargs)
        want = _run_layer(composed_conv_bn, arrays, running, dtype, **kwargs)
        assert got[0].dtype == np.dtype(dtype)
        _assert_bits(got, want)

    @pytest.mark.parametrize("training", [True, False])
    def test_a_resnet_trains_bit_for_bit_as_it_did_composed(self, dtype, training):
        """Through the whole ResNet a block input's gradient is a sum (conv1 and
        the residual or shortcut both read it), and the one-op layers must walk
        it as the composed graph did, in both modes."""
        from repro.models.resnet import ResNet10

        def run(forward):
            with default_dtype(dtype):
                rng = np.random.default_rng(5)
                net = ResNet10(base_width=4, rng=rng)
                net.train(training)
                images = Tensor(rng.standard_normal((3, 3, 16, 16)), requires_grad=True)
                out = forward(net, images)
                out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape).astype(dtype))
            return [out.data, images.grad] + [
                p.grad for p in net.parameters()
            ] + [b for _, b in net.named_buffers()]

        fused, composed = run(lambda net, x: net(x)), run(composed_resnet_forward)
        assert len(fused) == len(composed)
        _assert_bits(fused, composed)

    @pytest.mark.parametrize("frozen", range(5))
    def test_needs_are_honoured(self, dtype, frozen):
        # A frozen input gets no gradient; every other input gets the same bits.
        arrays, running = _layer_case(np.random.default_rng(8), (3, 4), 4, 2, 3, 1, 2, True)
        kwargs = dict(stride=2, padding=1, training=True, relu=True)
        everything = _run_layer(F.conv_bn, arrays, running, dtype, **kwargs)
        requires = [i != frozen for i in range(5)]
        got = _run_layer(F.conv_bn, arrays, running, dtype, requires=requires, **kwargs)
        assert got[1 + frozen] is None
        got[1 + frozen] = everything[1 + frozen] = None
        _assert_bits(got, everything)

    def test_an_eval_backward_reads_the_statistics_its_forward_used(self, dtype):
        """A train-mode forward over the same running buffers, between an
        eval-mode forward and that forward's backward, moves no gradient."""
        arrays, running = _layer_case(np.random.default_rng(10), (3, 4), 4, 2, 3, 1, 1, False)
        kwargs = dict(stride=1, padding=1, relu=True)
        undisturbed = _run_layer(F.conv_bn, arrays, running, dtype, training=False, **kwargs)
        with default_dtype(dtype):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            mean, var = (b.astype(dtype) for b in running)
            out = F.conv_bn(
                *inputs, running_mean=mean, running_var=var, training=False, **kwargs
            )
            F.conv_bn(
                *(Tensor(a) for a in arrays), running_mean=mean, running_var=var,
                training=True, **kwargs,
            )
            out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape).astype(dtype))
        _assert_bits([out.data] + [t.grad for t in inputs], undisturbed[:5])


class TestLayerOpGradCheck:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("relu", [True, False])
    def test_every_input_at_float64(self, training, stride, relu):
        arrays, running = _layer_case(np.random.default_rng(9), (2, 3), 4, 3, 3, 1, stride, True)
        mix = Tensor(np.cos(np.arange(arrays[4].size)).reshape(arrays[4].shape))

        def layer(x, weight, gamma, beta, residual, relu=relu):
            # Fresh buffers per call: the train-mode running-stat update must
            # not leak across the finite difference's evaluations.
            mean, var = (b.copy() for b in running)
            return F.conv_bn(
                x, weight, gamma, beta, residual, stride=stride, padding=1,
                running_mean=mean, running_var=var, training=training, relu=relu,
            )

        # Push every pre-activation 0.3 from the ReLU's kink: a finite
        # difference across it is no derivative.
        tensors = [Tensor(a) for a in arrays]
        pre = layer(*tensors, relu=False).data
        arrays[4] = arrays[4] + 0.3 * np.sign(pre)
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        for wrt in range(5):
            assert check_gradient(
                lambda *a: (layer(*a) * mix).sum(), inputs, wrt=wrt, **GRAD_CHECK[np.float64]
            ), wrt


class TestLayerOpRecords:
    def test_a_resnet_forward_is_twelve_records(self):
        """The stem's transpose, then one CONV_BN per layer: the stem, two per
        block and the two projection shortcuts (36 records while conv, batch
        norm, add and ReLU were ops of their own)."""
        from repro.models.resnet import ResNet10

        net = ResNet10(base_width=4, rng=np.random.default_rng(0))
        images = Tensor(np.random.default_rng(1).standard_normal((2, 3, 16, 16)))
        for training in (True, False):
            net.train(training)
            tape = Tape()
            with tracing(tape):
                net(images)
            assert [rec.op.name for rec in tape.records] == ["transpose"] + ["conv_bn"] * 11
            assert [rec.has_effect for rec in tape.records[1:]] == [training] * 11

    def test_the_forward_plan_serves_a_resnet_bit_for_bit(self):
        from repro.autograd import no_grad
        from repro.models.resnet import ResNet10
        from repro.serving.engine import ForwardPlan

        rng = np.random.default_rng(16)
        net = ResNet10(base_width=4, rng=rng)
        net.train()
        with no_grad():
            net(Tensor(rng.standard_normal((4, 3, 16, 16))))  # non-trivial running stats
        net.eval()
        images, other = (rng.standard_normal((2, 3, 16, 16)) for _ in range(2))
        with no_grad():
            tape = Tape()
            x = Tensor(images)
            tape.mark_input("images", x)
            with tracing(tape):
                logits = net(x)
            plan = ForwardPlan(tape, logits)
            assert len(plan._instructions) == 12
            for batch in (images, other, images):
                assert plan.run(batch).tobytes() == net(Tensor(batch)).data.tobytes()


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
    @pytest.mark.parametrize("rows", [1, 3])
    def test_attention(self, dtype, heads, rows):
        arrays = _attention_arrays(np.random.default_rng(7), 2, 3, heads, 2, rows=rows)
        weights = Tensor(np.cos(np.arange(2.0 * rows * 2 * heads)).reshape(2, rows, 2 * heads))
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
        from repro.nn.attention import ClassAttention

        attention = ClassAttention(DIM, num_heads=2, rng=np.random.default_rng(11))
        tokens = Tensor(_batches(np.random.default_rng(12), 1)[0][0])
        cls = Tensor(tokens.data[:, :1])
        tape = Tape()
        with tracing(tape):
            attention(cls, tokens)
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
            return F.linear(block(x), head)  # the block's (N, D) [CLS] rows

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
