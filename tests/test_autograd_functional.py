"""Gradient checks and behavioural tests for the neural-network functionals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.autograd.grad_check import check_gradient, numerical_gradient

RNG = np.random.default_rng(42)


class TestActivations:
    def test_relu_matches_numpy(self):
        x = RNG.standard_normal((3, 4))
        assert np.allclose(F.relu(Tensor(x)).data, np.maximum(x, 0))

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
        x = Tensor(RNG.standard_normal((8, 4, 5, 5)) * 3 + 2)
        weight, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        running_mean, running_var = np.zeros(4), np.ones(4)
        out = F.batch_norm_2d(x, weight, bias, running_mean, running_var, training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        assert not np.allclose(running_mean, 0.0)

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_matches_composed_reference(self, training):
        """The fused op against the elementwise graph it replaced."""

        def composed(x, weight, bias, running_mean, running_var):
            if training:
                mean = x.mean(axis=(0, 2, 3), keepdims=True)
                var = x.var(axis=(0, 2, 3), keepdims=True)
                running_mean *= 0.9
                running_mean += 0.1 * mean.data.reshape(-1)
                running_var *= 0.9
                running_var += 0.1 * var.data.reshape(-1)
            else:
                mean = Tensor(running_mean.reshape(1, -1, 1, 1))
                var = Tensor(running_var.reshape(1, -1, 1, 1))
            normed = (x - mean) / (var + 1e-5).sqrt()
            return normed * weight.reshape(1, -1, 1, 1) + bias.reshape(1, -1, 1, 1)

        data = RNG.standard_normal((6, 3, 4, 4)) * 2 + 1
        mix = Tensor(RNG.standard_normal(data.shape))
        results = []
        for fn in (composed, lambda *args: F.batch_norm_2d(*args, training=training)):
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
        x = Tensor(RNG.standard_normal((4, 2, 3, 3)))
        weight, bias = Tensor(np.ones(2)), Tensor(np.zeros(2))
        running_mean, running_var = np.array([5.0, -5.0]), np.array([1.0, 1.0])
        out = F.batch_norm_2d(x, weight, bias, running_mean, running_var, training=False)
        assert np.allclose(out.data[:, 0], x.data[:, 0] - 5.0, atol=1e-2)

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
        x = Tensor(RNG.standard_normal((2, 3, 8, 8)))
        w = Tensor(RNG.standard_normal((5, 3, 3, 3)))
        assert F.conv2d(x, w, stride=1, padding=1).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)
        assert F.conv2d(x, w, stride=1, padding=0).shape == (2, 5, 6, 6)

    def test_conv2d_channel_mismatch_raises(self):
        x = Tensor(RNG.standard_normal((1, 2, 4, 4)))
        w = Tensor(RNG.standard_normal((3, 5, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    @pytest.mark.parametrize(
        "size, stride, padding, match",
        [
            (1, 1, 0, r"a 3x3 window .* input of shape \(1, 2, 1, 1\)"),
            (2, 1, 0, r"a 3x3 window .* input of shape \(1, 2, 2, 2\)"),
            (4, 0, 0, r"stride must be positive, got \(0, 0\)"),
            (4, 1, -1, r"padding must be non-negative, got \(-1, -1\)"),
        ],
        ids=["negative-extent", "empty-output", "zero-stride", "negative-padding"],
    )
    def test_conv2d_window_that_does_not_fit_raises(self, size, stride, padding, match):
        x = Tensor(RNG.standard_normal((1, 2, size, size)))
        w = Tensor(RNG.standard_normal((3, 2, 3, 3)))
        with pytest.raises(ValueError, match="conv2d: " + match):
            F.conv2d(x, w, stride=stride, padding=padding)

    def test_conv2d_window_fits_once_padded(self):
        x = Tensor(RNG.standard_normal((1, 2, 1, 1)))
        w = Tensor(RNG.standard_normal((3, 2, 3, 3)))
        assert F.conv2d(x, w, padding=1).shape == (1, 3, 1, 1)

    def test_conv2d_matches_direct_computation(self):
        x = RNG.standard_normal((1, 1, 3, 3))
        w = RNG.standard_normal((1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0)
        assert out.data[0, 0, 0, 0] == pytest.approx(float((x[0, 0] * w[0, 0]).sum()))

    def test_conv2d_gradcheck_all_inputs(self):
        x = Tensor(RNG.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(RNG.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(RNG.standard_normal(3), requires_grad=True)
        fn = lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1).sum()
        assert check_gradient(fn, [x, w, b], wrt=0)
        assert check_gradient(fn, [x, w, b], wrt=1)
        assert check_gradient(fn, [x, w, b], wrt=2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "size, kernel, stride, padding",
        [
            (8, 3, 1, 1),  # ResNet body
            (8, 3, 2, 1),
            (7, 3, 2, 0),  # unpadded, odd extent
            (8, 1, 1, 0),  # tokenizer projection: a plain reshape
            (8, 1, 2, 0),  # ResNet shortcut projection: a strided view
            (7, 1, 2, 0),
            (6, 1, 1, 1),  # 1x1 but padded: the general path
            (6, 2, 2, 0),  # 2x2 windows, no overlap
        ],
    )
    def test_unfold_and_fold_are_bit_identical_to_the_pad_and_loop_reference(
        self, monkeypatch, dtype, size, kernel, stride, padding
    ):
        """``_im2col`` / ``_col2im`` against the ``np.pad`` + tap-loop code they replaced."""

        def reference_im2col(x, kernel, stride, padding):
            n, c, h, w = x.shape
            (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
            out_h = (h + 2 * ph - kh) // sh + 1
            out_w = (w + 2 * pw - kw) // sw + 1
            padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
            cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
            for i in range(kh):
                for j in range(kw):
                    cols[:, :, i, j] = padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]
            return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w

        def reference_col2im(cols, x_shape, kernel, stride, padding, out_h, out_w):
            n, c, h, w = x_shape
            (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
            padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
            cols = cols.reshape(n, c, kh, kw, out_h, out_w)
            for i in range(kh):
                for j in range(kw):
                    padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols[:, :, i, j]
            return padded[:, :, ph : ph + h, pw : pw + w]

        rng = np.random.default_rng(size * 100 + kernel * 10 + stride)
        data = rng.standard_normal((3, 4, size, size + 1)).astype(dtype)
        weight = rng.standard_normal((5, 4, kernel, kernel)).astype(dtype)
        mix = rng.standard_normal(
            F.conv2d(Tensor(data), Tensor(weight), stride=stride, padding=padding).shape
        ).astype(dtype)

        def run():
            results = []
            # A contiguous image and a non-contiguous view of the same values.
            for image in (data, np.asfortranarray(data)):
                x = Tensor(image, requires_grad=True)
                w = Tensor(weight, requires_grad=True)
                out = F.conv2d(x, w, stride=stride, padding=padding)
                (out * Tensor(mix)).sum().backward()
                results += [out.data, x.grad, w.grad]
            return results

        got = run()
        monkeypatch.setattr(F, "_im2col", reference_im2col)
        monkeypatch.setattr(F, "_col2im", reference_col2im)
        for new, old in zip(got, run()):
            assert new.dtype == old.dtype and new.shape == old.shape
            assert new.tobytes() == old.tobytes()

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
    numerical gradient; ops with kinks (relu) use inputs bounded away from
    the kink so the finite difference is well defined, and stateful ops
    (batch_norm) rebuild their state inside the closure so repeated
    evaluations are deterministic.
    """

    def _rand(self, *shape):
        return Tensor(RNG.standard_normal(shape), requires_grad=True)

    def test_relu(self):
        x = RNG.standard_normal((4, 5))
        x = Tensor(x + 0.2 * np.sign(x), requires_grad=True)  # keep away from the kink
        assert check_gradient(lambda t: F.relu(t).sum(), [x])

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
        x = self._rand(4, 3, 2, 2)
        w, b = self._rand(3), self._rand(3)

        def fn(x, w, b):
            # fresh buffers per call: the in-place running-stat update must not
            # leak across the repeated evaluations of the finite difference
            return F.batch_norm_2d(x, w, b, np.zeros(3), np.ones(3), training=True).sum()

        for wrt in range(3):
            assert check_gradient(fn, [x, w, b], wrt=wrt, atol=1e-3)

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_2d_weighted_both_modes(self, training):
        # A plain .sum() of a train-mode output is constant in x; the random
        # weighting makes every input's gradient non-trivial.  Eval mode must
        # stay differentiable too: a fine-tuning step may run a frozen
        # submodule's batch norm against its running statistics.
        x = self._rand(4, 3, 2, 2)
        w, b = self._rand(3), self._rand(3)
        mix = Tensor(RNG.standard_normal((4, 3, 2, 2)))
        mean, var = RNG.standard_normal(3), RNG.uniform(0.5, 2.0, 3)

        def fn(x, w, b):
            out = F.batch_norm_2d(x, w, b, mean.copy(), var.copy(), training=training)
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
