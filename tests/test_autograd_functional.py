"""Gradient checks and behavioural tests for the neural-network functionals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, functional as F
from repro.autograd.grad_check import check_gradient, numerical_gradient
from repro.autograd.tensor import default_dtype

RNG = np.random.default_rng(42)


def _batch_norm(x, gamma, beta, running_mean, running_var, training, momentum=0.1):
    """Batch norm alone: the layer op over an identity 1x1 conv (exact: x * 1 + 0 * ...)."""
    channels = x.shape[0]
    identity = Tensor(np.eye(channels).reshape(channels, channels, 1, 1))
    return F.conv_bn(
        x, identity, gamma, beta, stride=1, padding=0, running_mean=running_mean,
        running_var=running_var, training=training, momentum=momentum, relu=False,
    )


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.standard_normal((5, 7)))
        probs = F.softmax(x).data
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_invariant_to_shift(self):
        x = RNG.standard_normal((2, 4))
        assert np.allclose(F.softmax(Tensor(x)).data, F.softmax(Tensor(x + 100.0)).data)

    def test_log_softmax_is_log_of_softmax(self):
        x = Tensor(RNG.standard_normal((3, 6)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-8)

    def test_gelu_close_to_identity_for_large_positive(self):
        x = Tensor(np.array([5.0]))
        assert F.gelu(x).data == pytest.approx(5.0, abs=1e-3)

    def test_gelu_gradient(self):
        x = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
        assert check_gradient(lambda t: F.gelu(t).sum(), [x])


class TestLinearAndNorm:
    def test_linear_matches_manual(self):
        x, w, b = RNG.standard_normal((4, 3)), RNG.standard_normal((5, 3)), RNG.standard_normal(5)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, x @ w.T + b)

    def test_layer_norm_zero_mean_unit_var(self):
        x = Tensor(RNG.standard_normal((6, 16)))
        normed = F.layer_norm(x).data
        assert np.allclose(normed.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(normed.std(axis=-1), 1.0, atol=1e-2)

    def test_layer_norm_gradcheck(self):
        x = Tensor(RNG.standard_normal((2, 3, 8)), requires_grad=True)
        w = Tensor(RNG.standard_normal(8), requires_grad=True)
        b = Tensor(RNG.standard_normal(8), requires_grad=True)
        assert check_gradient(lambda x, w, b: F.layer_norm(x, w, b).sum(), [x, w, b], wrt=0)
        assert check_gradient(lambda x, w, b: F.layer_norm(x, w, b).sum(), [x, w, b], wrt=1)

    def test_batch_norm_training_normalises(self):
        x = Tensor(RNG.standard_normal((4, 5, 5, 8)) * 3 + 2)
        weight, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        running_mean, running_var = np.zeros(4), np.ones(4)
        out = _batch_norm(x, weight, bias, running_mean, running_var, training=True)
        assert np.allclose(out.data.mean(axis=(1, 2, 3)), 0.0, atol=1e-6)
        assert not np.allclose(running_mean, 0.0)

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_matches_composed_reference(self, training):
        """The layer op's batch norm against the elementwise graph it replaced."""

        def composed(x, weight, bias, running_mean, running_var):
            if training:
                mean = x.mean(axis=(1, 2, 3), keepdims=True)
                var = x.var(axis=(1, 2, 3), keepdims=True)
                running_mean *= 0.9
                running_mean += 0.1 * mean.data.reshape(-1)
                running_var *= 0.9
                running_var += 0.1 * var.data.reshape(-1)
            else:
                mean = Tensor(running_mean.reshape(-1, 1, 1, 1))
                var = Tensor(running_var.reshape(-1, 1, 1, 1))
            normed = (x - mean) / (var + 1e-5).sqrt()
            return normed * weight.reshape(-1, 1, 1, 1) + bias.reshape(-1, 1, 1, 1)

        data = RNG.standard_normal((3, 4, 4, 6)) * 2 + 1
        mix = Tensor(RNG.standard_normal(data.shape))
        results = []
        for fn in (composed, lambda *args: _batch_norm(*args, training=training)):
            x = Tensor(data, requires_grad=True)
            weight = Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
            bias = Tensor(np.array([0.1, -0.2, 0.3]), requires_grad=True)
            buffers = np.array([0.3, -0.1, 0.2]), np.array([0.8, 1.5, 1.1])
            out = fn(x, weight, bias, *buffers)
            (out * mix).sum().backward()
            results.append((out.data, x.grad, weight.grad, bias.grad, *buffers))
        for reference, fused in zip(*results):
            np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-12)

    def test_batch_norm_eval_uses_running_stats(self):
        x = Tensor(RNG.standard_normal((2, 3, 3, 4)))
        weight, bias = Tensor(np.ones(2)), Tensor(np.zeros(2))
        running_mean, running_var = np.array([5.0, -5.0]), np.array([1.0, 1.0])
        out = _batch_norm(x, weight, bias, running_mean, running_var, training=False)
        assert np.allclose(out.data[0], x.data[0] - 5.0, atol=1e-2)

    @pytest.mark.parametrize(
        "x_shape, sizes, residual_shape",
        [
            ((5, 4, 4, 3), (3, 3, 3, 3), None),  # the input's channel count, not the output's
            ((3, 4, 4, 3), (5, 5, 5, 4), None),  # one running buffer too short
            ((3, 4, 4, 3), (5, 4, 5, 5), None),  # beta too short
            ((3, 4, 4), (5, 5, 5, 5), None),  # not a 4-D map
            ((4, 4, 4, 3), (5, 5, 5, 5), None),  # x's channels do not match the weight
            ((3, 4, 4, 3), (5, 5, 5, 5), (5, 4, 4, 3)),  # the input's extent: stride 2 halves it
        ],
        ids=["channels", "running-var", "bias", "rank", "weights", "residual"],
    )
    def test_batch_norm_refuses_mismatched_shapes_before_writing_its_buffers(
        self, x_shape, sizes, residual_shape
    ):
        x = Tensor(RNG.standard_normal(x_shape))
        weight = Tensor(RNG.standard_normal((5, 3, 3, 3)))
        gamma, beta = Tensor(np.ones(sizes[0])), Tensor(np.zeros(sizes[1]))
        running_mean, running_var = np.ones(sizes[2]), np.ones(sizes[3])
        residual = None if residual_shape is None else Tensor(np.ones(residual_shape))
        with pytest.raises(ValueError, match=r"conv_bn: "):
            F.conv_bn(
                x, weight, gamma, beta, residual, stride=2, padding=1, running_mean=running_mean,
                running_var=running_var, training=True, relu=True,
            )
        assert np.array_equal(running_mean, np.ones(sizes[2]))
        assert np.array_equal(running_var, np.ones(sizes[3]))

    def test_l2_normalize_unit_norm(self):
        x = Tensor(RNG.standard_normal((5, 8)))
        norms = np.linalg.norm(F.l2_normalize(x).data, axis=-1)
        assert np.allclose(norms, 1.0)

    def test_cosine_similarity_bounds_and_self(self):
        x = Tensor(RNG.standard_normal((4, 6)))
        sims = F.cosine_similarity(x, x).data
        assert np.allclose(sims, 1.0)
        y = Tensor(-x.data)
        assert np.allclose(F.cosine_similarity(x, y).data, -1.0)

    def test_cosine_similarity_gradcheck(self):
        a = Tensor(RNG.standard_normal((3, 5)), requires_grad=True)
        b = Tensor(RNG.standard_normal((3, 5)), requires_grad=True)
        assert check_gradient(lambda a, b: F.cosine_similarity(a, b).sum(), [a, b], wrt=0)
        assert check_gradient(lambda a, b: F.cosine_similarity(a, b).sum(), [a, b], wrt=1)


class TestConvolution:
    def test_conv2d_output_shape(self):
        x = Tensor(RNG.standard_normal((3, 8, 8, 2)))
        w = Tensor(RNG.standard_normal((5, 3, 3, 3)))
        assert F.conv2d(x, w, stride=1, padding=1).shape == (5, 8, 8, 2)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (5, 4, 4, 2)
        assert F.conv2d(x, w, stride=1, padding=0).shape == (5, 6, 6, 2)

    def test_conv2d_channel_mismatch_raises(self):
        x = Tensor(RNG.standard_normal((2, 4, 4, 1)))
        w = Tensor(RNG.standard_normal((3, 5, 3, 3)))
        with pytest.raises(ValueError, match=r"input of shape \(2, 4, 4, 1\) does not match"):
            F.conv2d(x, w)

    @pytest.mark.parametrize(
        "x_shape, w_shape, bias_shape, match",
        [
            ((3, 4, 4, 2), (5, 27), None, r"weights of shape \(5, 27\)"),
            ((3, 4, 4), (5, 3, 3, 3), None, r"input of shape \(3, 4, 4\)"),
            ((3, 4, 4, 2), (5, 3, 3, 3), (4,), r"bias of shape \(4,\) is not \(C_out,\) = \(5,\)"),
            ((3, 4, 4, 2), (5, 3, 3, 3), (5, 1), r"bias of shape \(5, 1\)"),
        ],
        ids=["2d-weight", "3d-input", "short-bias", "2d-bias"],
    )
    def test_conv2d_refuses_malformed_shapes_naming_them(self, x_shape, w_shape, bias_shape, match):
        x, w = Tensor(RNG.standard_normal(x_shape)), Tensor(RNG.standard_normal(w_shape))
        bias = None if bias_shape is None else Tensor(RNG.standard_normal(bias_shape))
        with pytest.raises(ValueError, match="conv2d: .*" + match):
            F.conv2d(x, w, bias, padding=1)

    @pytest.mark.parametrize(
        "size, stride, padding, match",
        [
            (1, 1, 0, r"a 3x3 window .* input of shape \(2, 1, 1, 1\)"),
            (2, 1, 0, r"a 3x3 window .* input of shape \(2, 2, 2, 1\)"),
            (4, 0, 0, r"stride must be positive, got \(0, 0\)"),
            (4, 1, -1, r"padding must be non-negative, got \(-1, -1\)"),
        ],
        ids=["negative-extent", "empty-output", "zero-stride", "negative-padding"],
    )
    def test_conv2d_window_that_does_not_fit_raises(self, size, stride, padding, match):
        x = Tensor(RNG.standard_normal((2, size, size, 1)))
        w = Tensor(RNG.standard_normal((3, 2, 3, 3)))
        with pytest.raises(ValueError, match="conv2d: " + match):
            F.conv2d(x, w, stride=stride, padding=padding)

    def test_conv2d_window_fits_once_padded(self):
        x = Tensor(RNG.standard_normal((2, 1, 1, 1)))
        w = Tensor(RNG.standard_normal((3, 2, 3, 3)))
        assert F.conv2d(x, w, padding=1).shape == (3, 1, 1, 1)

    def test_conv2d_matches_direct_computation(self):
        x = RNG.standard_normal((1, 3, 3, 1))
        w = RNG.standard_normal((1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0)
        assert out.data[0, 0, 0, 0] == pytest.approx(float((x[0, :, :, 0] * w[0, 0]).sum()))

    @pytest.mark.parametrize(
        "x_shape, kernel, stride, padding",
        [
            ((2, 5, 5, 2), 3, 2, 1),
            # Unpadded windows on a non-square map: the fold returns its buffer as is.
            ((2, 7, 6, 2), 3, 2, 0),
            ((2, 7, 6, 2), 2, 2, 0),
            # Stride 1: the input gradient is the flipped kernel over the padded gradient.
            ((2, 5, 5, 2), 3, 1, 1),
            ((2, 7, 6, 2), 3, 1, 0),
            ((2, 5, 4, 2), 2, 1, 1),
            ((2, 6, 5, 2), 5, 1, 2),
        ],
        ids=[
            "3x3-padded",
            "3x3-unpadded",
            "2x2-unpadded",
            "3x3-s1-padded",
            "3x3-s1-unpadded",
            "2x2-s1-padded",
            "5x5-s1-padded",
        ],
    )
    def test_conv2d_gradcheck_all_inputs(self, x_shape, kernel, stride, padding):
        x = Tensor(RNG.standard_normal(x_shape), requires_grad=True)
        w = Tensor(RNG.standard_normal((3, 2, kernel, kernel)), requires_grad=True)
        b = Tensor(RNG.standard_normal(3), requires_grad=True)
        out_shape = F.conv2d(x, w, b, stride=stride, padding=padding).shape
        # A random upstream gradient: a uniform one is blind to a wrong flip
        # everywhere the whole kernel overlaps the map.
        mix = Tensor(RNG.standard_normal(out_shape))
        fn = lambda x, w, b: (F.conv2d(x, w, b, stride=stride, padding=padding) * mix).sum()
        assert check_gradient(fn, [x, w, b], wrt=0)
        assert check_gradient(fn, [x, w, b], wrt=1)
        assert check_gradient(fn, [x, w, b], wrt=2)


# --------------------------------------------------------------------------- #
# The batch-last layout contract
# --------------------------------------------------------------------------- #
def _nchw_unfold(x, kernel, stride, padding):
    """``np.pad`` + tap-loop columns ``(N, C*kh*kw, out_h*out_w)`` of an ``(N, C, H, W)`` map."""
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def _nchw_fold(cols, x_shape, kernel, stride, padding, out_h, out_w):
    """The inverse of :func:`_nchw_unfold`, accumulating overlapping taps in tap order."""
    n, c, h, w = x_shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols[:, :, i, j]
    return padded[:, :, ph : ph + h, pw : pw + w]


def _nchw_conv_reference(x, weight, bias, stride, padding, grad):
    """An ``(N, C, H, W)`` conv, the oracle for the batch-last one.

    One GEMM per sample, and the weight gradient summed over the batch last.
    Returns ``(out, grad_x, grad_w)`` for the upstream gradient ``grad`` of
    ``out``.
    """
    n = x.shape[0]
    c_out, kernel = weight.shape[0], weight.shape[2:]
    cols, out_h, out_w = _nchw_unfold(x, kernel, stride, padding)
    w_mat = weight.reshape(c_out, -1)
    out = np.matmul(w_mat, cols).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    grad_mat = grad.reshape(n, c_out, out_h * out_w)
    grad_w = np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    grad_cols = np.matmul(w_mat.T, grad_mat)
    grad_x = _nchw_fold(grad_cols, x.shape, kernel, stride, padding, out_h, out_w)
    return out, grad_x, grad_w


def _nchw_flipped_input_grad(weight, grad, padding):
    """A stride-1 conv's input gradient as ``conv2d`` computes it, one sample at a time.

    The gradient ``(N, C_out, out_h, out_w)`` unfolded at padding ``k - 1 - p``
    per axis, times the kernel flipped in both spatial axes and transposed to
    ``(C_in, C_out*kh*kw)``: one GEMM per sample.
    """
    c_in, (kh, kw), n = weight.shape[1], weight.shape[2:], grad.shape[0]
    cols, h, w = _nchw_unfold(grad, (kh, kw), (1, 1), (kh - 1 - padding[0], kw - 1 - padding[1]))
    flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
    return np.matmul(flipped, cols).reshape(n, c_in, h, w)


def _batch_last(a):
    return a.transpose(1, 2, 3, 0)


def _layouts(images):
    """``images`` batch-last three ways: C-ordered, F-ordered and (past one column) neither."""
    contiguous = np.ascontiguousarray(_batch_last(images))
    # Every other column of a buffer twice as wide: neither C- nor F-ordered.
    c, h, w, n = contiguous.shape
    buffer = np.zeros((c, h, 2 * w, n), dtype=images.dtype)
    buffer[:, :, ::2] = contiguous
    return contiguous, np.asfortranarray(contiguous), buffer[:, :, ::2]


def _assert_conv_matches_the_oracle(images, inputs, weight, bias, stride, padding, rng, exact):
    """Conv each batch-last array in ``inputs`` (all holding ``images``) against the oracle.

    The weight gradient must match the fold oracle to rounding, all in the
    dtype of ``images``; output and input gradient bit for bit if ``exact``,
    else to rounding too.  A stride-1 input gradient is exact against
    :func:`_nchw_flipped_input_grad` and matches the fold to rounding.
    """
    dtype = images.dtype
    n, _, h, w = images.shape
    c_out, _, kh, kw = weight.shape
    out_shape = (n, c_out, (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1)
    mix = rng.standard_normal(out_shape).astype(dtype)
    out, grad_x, grad_w = _nchw_conv_reference(
        images, weight, bias, (stride, stride), (padding, padding), mix
    )
    if exact and stride == 1:
        flipped = _nchw_flipped_input_grad(weight, mix, (padding, padding))
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for data in inputs:
        assert np.array_equal(data, _batch_last(images))
        with default_dtype(dtype):
            x, wt = Tensor(data, requires_grad=True), Tensor(weight, requires_grad=True)
            args = (x, wt) if bias is None else (x, wt, Tensor(bias))
            got = F.conv2d(*args, stride=stride, padding=padding)
            (got * Tensor(_batch_last(mix))).sum().backward()
        assert got.data.dtype == x.grad.dtype == wt.grad.dtype == dtype
        checks = [(wt.grad, grad_w)]
        if exact:
            assert np.array_equal(got.data, _batch_last(out))
            if stride == 1:
                assert np.array_equal(x.grad, _batch_last(flipped))
                checks.append((x.grad, _batch_last(grad_x)))
            else:
                assert np.array_equal(x.grad, _batch_last(grad_x))
        else:
            checks += [(got.data, _batch_last(out)), (x.grad, _batch_last(grad_x))]
        for value, reference in checks:
            atol = rtol * np.abs(reference).max()
            np.testing.assert_allclose(value, reference, rtol=rtol, atol=atol)


#: ``(c_in, c_out, size, kernel, stride, padding)`` of the eleven convs of the
#: ``small`` ResNet10 (base width 12, 16x16 images), then the tokenizer's
#: biased 1x1 projection.
RESNET_CONVS = {
    "stem": (3, 12, 16, 3, 1, 1),
    "block0.conv1": (12, 12, 16, 3, 1, 1),
    "block0.conv2": (12, 12, 16, 3, 1, 1),
    "block1.conv1": (12, 24, 16, 3, 2, 1),
    "block1.conv2": (24, 24, 8, 3, 1, 1),
    "block1.shortcut": (12, 24, 16, 1, 2, 0),
    "block2.conv1": (24, 24, 8, 3, 2, 1),
    "block2.conv2": (24, 24, 4, 3, 1, 1),
    "block2.shortcut": (24, 24, 8, 1, 2, 0),
    "block3.conv1": (24, 24, 4, 3, 1, 1),
    "block3.conv2": (24, 24, 4, 3, 1, 1),
    "tokenizer.projection": (24, 32, 4, 1, 1, 0),
}


#: ``(h, w, kernel, stride, padding)`` of conv geometries the ResNet does not
#: use: non-square maps, unpadded windows larger than 1x1 (the fold's
#: unpadded branch), a padded 1x1 (the general unfold) and non-overlapping
#: 2x2 windows.
OTHER_CONVS = {
    "3x3-s1-p1": (8, 9, 3, 1, 1),
    "3x3-s2-p1": (8, 9, 3, 2, 1),
    "3x3-s2-unpadded-odd": (7, 8, 3, 2, 0),
    "1x1-s1": (8, 9, 1, 1, 0),
    "1x1-s2": (8, 9, 1, 2, 0),
    "1x1-s2-odd": (7, 8, 1, 2, 0),
    "1x1-padded": (6, 7, 1, 1, 1),
    "2x2-s2-no-overlap": (6, 7, 2, 2, 0),
}


@st.composite
def _stride_1_geometries(draw):
    """``(h, w, (kh, kw), (ph, pw))`` of a stride-1 conv padded by at most ``k - 1``."""
    kernel = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    padding = tuple(draw(st.integers(0, k - 1)) for k in kernel)
    h, w = (draw(st.integers(max(1, k - 2 * p), 9)) for k, p in zip(kernel, padding))
    return h, w, kernel, padding


class TestBatchLastLayout:
    """Feature maps are ``(C, H, W, N)``; the NCHW conv above is the oracle.

    The unfold and fold only move values (the fold adds overlapping taps in
    the oracle's order), so they match the oracle's bit for bit at any
    geometry.  Each output element, and each element of a strided conv's
    input gradient, is the same dot product either way: on the ResNet's
    16x16, 8x8 and 4x4 maps the bundled OpenBLAS sums it in the same order,
    so those match bit for bit, while on other extents (an 8x9 map) its
    kernels may split the columns differently and round the last bit
    differently.  A stride-1 conv's input gradient is the flipped kernel over
    the padded gradient, one dot product over ``C_out*kh*kw`` where the fold
    oracle sums over ``C_out`` and then adds taps: it matches the fold to
    rounding, and :func:`_nchw_flipped_input_grad` (the same GEMM per sample)
    bit for bit on the ResNet's extents.  The weight gradient and the
    batch-norm statistics sum over the batch in a new order: they match to
    rounding.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layer", list(RESNET_CONVS))
    def test_conv_matches_the_nchw_oracle(self, layer, dtype):
        c_in, c_out, size, kernel, stride, padding = RESNET_CONVS[layer]
        rng = np.random.default_rng(sum(RESNET_CONVS[layer]))
        weight = rng.standard_normal((c_out, c_in, kernel, kernel)).astype(dtype)
        bias = rng.standard_normal(c_out).astype(dtype) if layer.startswith("tok") else None
        for batch in (16, 5):
            images = rng.standard_normal((batch, c_in, size, size)).astype(dtype)
            # The stem's input is a transposed view; every later map is contiguous.
            inputs = (_batch_last(images), np.ascontiguousarray(_batch_last(images)))
            _assert_conv_matches_the_oracle(
                images, inputs, weight, bias, stride, padding, rng, exact=True
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", list(OTHER_CONVS))
    def test_conv_off_the_resnet_geometries_matches_the_nchw_oracle(self, geometry, dtype):
        h, w, kernel, stride, padding = OTHER_CONVS[geometry]
        rng = np.random.default_rng(h * 100 + kernel * 10 + stride)
        weight = rng.standard_normal((5, 4, kernel, kernel)).astype(dtype)
        bias = rng.standard_normal(5).astype(dtype)
        images = rng.standard_normal((3, 4, h, w)).astype(dtype)
        contiguous, _, strided = inputs = _layouts(images)
        assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
        geometry = (kernel, kernel), (stride, stride), (padding, padding)
        ref_cols, out_h, out_w = _nchw_unfold(images, *geometry)
        for data in inputs:
            cols, *_ = F._im2col(data, *geometry)
            assert np.array_equal(cols, ref_cols.transpose(1, 2, 0).reshape(cols.shape))
        taps = rng.standard_normal(ref_cols.shape).astype(dtype)
        image = F._col2im(
            taps.transpose(1, 2, 0).reshape(taps.shape[1], -1),
            contiguous.shape,
            *geometry,
            out_h,
            out_w,
        )
        reference = _nchw_fold(taps, images.shape, *geometry, out_h, out_w)
        assert image.dtype == dtype and np.array_equal(image, _batch_last(reference))
        _assert_conv_matches_the_oracle(
            images, inputs, weight, bias, stride, padding, rng, exact=False
        )

    @settings(deadline=None)
    @given(
        geometry=_stride_1_geometries(),
        channels=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        batch=st.integers(1, 5),
        dtype=st.sampled_from([np.float32, np.float64]),
        layout=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    @example(((8, 8, (3, 3), (1, 1))), (4, 3), 5, np.float32, 2, 0)
    @example(((4, 4, (3, 3), (1, 1))), (2, 4), 3, np.float64, 1, 1)
    def test_a_stride_1_input_gradient_is_the_flipped_kernel_over_the_padded_gradient(
        self, geometry, channels, batch, dtype, layout, seed
    ):
        h, w, kernel, padding = geometry
        (c_in, c_out), rng = channels, np.random.default_rng(seed)
        images = rng.standard_normal((batch, c_in, h, w)).astype(dtype)
        weight = rng.standard_normal((c_out, c_in) + kernel).astype(dtype)
        out_h, out_w = (s + 2 * p - k + 1 for s, k, p in zip((h, w), kernel, padding))
        mix = rng.standard_normal((batch, c_out, out_h, out_w)).astype(dtype)
        with default_dtype(dtype):
            x = Tensor(_layouts(images)[layout], requires_grad=True)
            (F.conv2d(x, Tensor(weight), padding=padding) * Tensor(_batch_last(mix))).sum().backward()
        _, fold, _ = _nchw_conv_reference(images, weight, None, (1, 1), padding, mix)
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        assert x.grad.dtype == dtype
        np.testing.assert_allclose(
            x.grad, _batch_last(fold), rtol=rtol, atol=rtol * np.abs(fold).max()
        )
        if (h, w) in ((4, 4), (8, 8)):
            flipped = _nchw_flipped_input_grad(weight, mix, padding)
            assert np.array_equal(x.grad, _batch_last(flipped))

    @pytest.mark.parametrize("layer", list(RESNET_CONVS))
    def test_batch_norm_statistics_match_the_nchw_reduction(self, layer):
        _, channels, size, _, stride, _ = RESNET_CONVS[layer]
        rng = np.random.default_rng(sum(RESNET_CONVS[layer]))
        size = (size - 1) // stride + 1
        maps = rng.standard_normal((16, channels, size, size)) * 3 + 1
        mean = np.einsum("nchw->c", maps) / (maps.size // channels)
        centred = maps - mean.reshape(1, -1, 1, 1)
        var = np.einsum("nchw,nchw->c", centred, centred) / (maps.size // channels)
        # momentum 1: the running buffers become this batch's statistics.
        running_mean, running_var = np.zeros(channels), np.ones(channels)
        weight, bias = Tensor(np.ones(channels)), Tensor(np.zeros(channels))
        x = Tensor(np.ascontiguousarray(_batch_last(maps)))
        _batch_norm(x, weight, bias, running_mean, running_var, training=True, momentum=1.0)
        np.testing.assert_allclose(running_mean, mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(running_var, var, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_conv_and_batch_norm_of_a_batch_equal_its_single_sample_forwards(self, dtype):
        rng = np.random.default_rng(7)
        for layer, (c_in, c_out, size, kernel, stride, padding) in RESNET_CONVS.items():
            mean = rng.standard_normal(c_out).astype(dtype)
            var = rng.uniform(0.5, 2.0, c_out).astype(dtype)
            maps = _batch_last(rng.standard_normal((16, c_in, size, size)).astype(dtype))
            with default_dtype(dtype):
                weight = Tensor(rng.standard_normal((c_out, c_in, kernel, kernel)))
                gamma, beta = Tensor(rng.standard_normal(c_out)), Tensor(rng.standard_normal(c_out))

                def forward(x):
                    return F.conv_bn(
                        Tensor(x), weight, gamma, beta, stride=stride, padding=padding,
                        running_mean=mean, running_var=var, training=False, relu=True,
                    ).data

                batched = forward(maps)
                assert batched.dtype == dtype
                for i in range(maps.shape[3]):
                    single = forward(maps[..., i : i + 1])
                    assert np.array_equal(batched[..., i : i + 1], single), layer


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = RNG.standard_normal((4, 3))
        targets = np.array([0, 1, 2, 1])
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert F.cross_entropy(Tensor(logits), targets).data == pytest.approx(expected)

    def test_cross_entropy_reductions(self):
        logits = Tensor(RNG.standard_normal((4, 3)))
        targets = np.array([0, 1, 2, 1])
        none = F.cross_entropy(logits, targets, reduction="none")
        assert none.shape == (4,)
        assert F.cross_entropy(logits, targets, reduction="sum").data == pytest.approx(
            none.data.sum()
        )
        with pytest.raises(ValueError):
            F.nll_loss(F.log_softmax(logits), targets, reduction="bogus")

    def test_cross_entropy_gradcheck(self):
        logits = Tensor(RNG.standard_normal((5, 4)), requires_grad=True)
        targets = RNG.integers(0, 4, 5)
        assert check_gradient(lambda l: F.cross_entropy(l, targets), [logits])

    def test_perfect_prediction_loss_near_zero(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        assert F.cross_entropy(Tensor(logits), np.array([1, 2])).data == pytest.approx(0.0, abs=1e-6)

    def test_soft_cross_entropy_matches_hard_on_onehot(self):
        logits = Tensor(RNG.standard_normal((3, 4)))
        targets = np.array([1, 0, 3])
        onehot = Tensor(np.eye(4)[targets])
        assert F.soft_cross_entropy(logits, onehot).data == pytest.approx(
            float(F.cross_entropy(logits, targets).data)
        )

    def test_kd_loss_zero_when_identical(self):
        logits = Tensor(RNG.standard_normal((4, 5)))
        loss = F.knowledge_distillation_loss(logits, logits, temperature=2.0)
        probs = F.softmax(logits / 2.0).data
        entropy = -(probs * np.log(probs)).sum(axis=1).mean() * 4.0
        assert loss.data == pytest.approx(entropy, rel=1e-6)

    def test_kd_loss_decreases_as_student_approaches_teacher(self):
        teacher = Tensor(np.array([[4.0, 0.0, 0.0]]))
        far = Tensor(np.array([[0.0, 4.0, 0.0]]))
        near = Tensor(np.array([[3.0, 0.5, 0.0]]))
        assert F.knowledge_distillation_loss(near, teacher).data < F.knowledge_distillation_loss(
            far, teacher
        ).data

    @pytest.mark.parametrize(
        "loss_fn, target",
        [
            (F.soft_cross_entropy, lambda: Tensor(F.softmax(Tensor(RNG.standard_normal((3, 4)))).data)),
            (F.cross_entropy, lambda: np.array([0, 3, 1])),
            (F.nll_loss, lambda: np.array([2, 2, 0])),
        ],
        ids=["soft_cross_entropy", "cross_entropy", "nll_loss"],
    )
    def test_unknown_reduction_raises_instead_of_returning_unreduced(self, loss_fn, target):
        # Regression: reduction="avg" used to fall through to the unreduced
        # vector, surfacing as a .backward() error far from the typo.
        a = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        b = target()
        assert loss_fn(a, b, reduction="none").shape == (3,)
        assert loss_fn(a, b, reduction="sum").data == pytest.approx(
            loss_fn(a, b, reduction="none").data.sum()
        )
        assert loss_fn(a, b, reduction="mean").data == pytest.approx(
            loss_fn(a, b, reduction="none").data.mean()
        )
        with pytest.raises(ValueError, match="unknown reduction 'avg'"):
            loss_fn(a, b, reduction="avg")

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        out = F.embedding(table, np.array([1, 1, 3]))
        assert np.allclose(out.data[0], [3, 4, 5])
        out.sum().backward()
        assert table.grad[1].sum() == pytest.approx(6.0)
        assert table.grad[0].sum() == pytest.approx(0.0)


class TestNumericalGradientHelper:
    def test_numerical_gradient_of_square(self):
        x = Tensor(np.array([2.0, -3.0]))
        grad = numerical_gradient(lambda t: (t * t).sum(), [x])
        assert np.allclose(grad, [4.0, -6.0], atol=1e-4)


class TestEveryOpGradCheck:
    """Systematic float64 finite-difference sweep over ``functional.__all__``.

    Every differentiable functional gets at least one check against its
    numerical gradient; stateful ops (the layer op's batch norm) rebuild
    their state inside the closure so repeated evaluations are
    deterministic.
    """

    def _rand(self, *shape):
        return Tensor(RNG.standard_normal(shape), requires_grad=True)

    def test_tanh(self):
        # Tensor.tanh builds the composed GELU reference in test_fused_ops.py.
        assert check_gradient(lambda t: t.tanh().sum(), [self._rand(3, 4)])

    def test_softmax(self):
        w = RNG.standard_normal((3, 6))  # weighted sum so the gradient is non-trivial
        x = self._rand(3, 6)
        assert check_gradient(lambda t: (F.softmax(t) * Tensor(w)).sum(), [x])

    def test_log_softmax(self):
        w = RNG.standard_normal((4, 5))
        x = self._rand(4, 5)
        assert check_gradient(lambda t: (F.log_softmax(t) * Tensor(w)).sum(), [x])

    def test_linear_all_inputs(self):
        x, w, b = self._rand(4, 3), self._rand(5, 3), self._rand(5)
        fn = lambda x, w, b: F.linear(x, w, b).sum()
        for wrt in range(3):
            assert check_gradient(fn, [x, w, b], wrt=wrt)

    def test_l2_normalize(self):
        w = RNG.standard_normal((4, 6))
        x = self._rand(4, 6)
        assert check_gradient(lambda t: (F.l2_normalize(t) * Tensor(w)).sum(), [x])

    def test_batch_norm_2d(self):
        x = self._rand(3, 2, 2, 4)
        w, b = self._rand(3), self._rand(3)

        def fn(x, w, b):
            # fresh buffers per call: the in-place running-stat update must not
            # leak across the repeated evaluations of the finite difference
            return _batch_norm(x, w, b, np.zeros(3), np.ones(3), training=True).sum()

        for wrt in range(3):
            assert check_gradient(fn, [x, w, b], wrt=wrt, atol=1e-3)

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_2d_weighted_both_modes(self, training):
        # A plain .sum() of a train-mode output is constant in x; the random
        # weighting makes every input's gradient non-trivial.  Eval mode must
        # stay differentiable too: a fine-tuning step may run a frozen
        # submodule's batch norm against its running statistics.  (The layer
        # op's own gradcheck, every input, is in test_fused_ops.py.)
        x = self._rand(3, 2, 2, 4)
        w, b = self._rand(3), self._rand(3)
        mix = Tensor(RNG.standard_normal((3, 2, 2, 4)))
        mean, var = RNG.standard_normal(3), RNG.uniform(0.5, 2.0, 3)

        def fn(x, w, b):
            out = _batch_norm(x, w, b, mean.copy(), var.copy(), training=training)
            return (out * mix).sum()

        for wrt in range(3):
            assert check_gradient(fn, [x, w, b], wrt=wrt)

    def test_nll_loss(self):
        targets = np.array([0, 2, 1])
        log_probs = self._rand(3, 4)
        for reduction in ("mean", "sum"):
            assert check_gradient(
                lambda t: F.nll_loss(t, targets, reduction=reduction), [log_probs]
            )

    def test_soft_cross_entropy_both_inputs(self):
        logits = self._rand(3, 5)
        soft = F.softmax(Tensor(RNG.standard_normal((3, 5)), requires_grad=True))
        soft = Tensor(soft.data, requires_grad=True)  # valid distribution as a leaf
        fn = lambda lo, so: F.soft_cross_entropy(lo, so)
        assert check_gradient(fn, [logits, soft], wrt=0)
        assert check_gradient(fn, [logits, soft], wrt=1)

    def test_knowledge_distillation_loss_wrt_student(self):
        student, teacher = self._rand(3, 5), self._rand(3, 5)
        assert check_gradient(
            lambda s, t: F.knowledge_distillation_loss(s, t, temperature=2.0),
            [student, teacher],
            wrt=0,
        )

    def test_kd_loss_teacher_is_detached(self):
        student, teacher = self._rand(3, 5), self._rand(3, 5)
        F.knowledge_distillation_loss(student, teacher).backward()
        assert student.grad is not None
        assert teacher.grad is None

    def test_embedding_wrt_weight(self):
        weight = self._rand(7, 4)
        indices = np.array([1, 3, 3, 0])
        scale = RNG.standard_normal((4, 4))
        assert check_gradient(
            lambda w: (F.embedding(w, indices) * Tensor(scale)).sum(), [weight]
        )
