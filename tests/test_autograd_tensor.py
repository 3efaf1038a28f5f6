"""Unit and property-based tests for the autograd Tensor."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, functional as F, no_grad
from repro.autograd import tape
from repro.autograd.grad_check import check_gradient
from repro.autograd.tape import Op, OpContext
from repro.autograd.tensor import apply_op, unbroadcast


def small_arrays(max_side: int = 4):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=max_side),
        elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    )


class TestConstruction:
    def test_data_is_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert np.allclose(b.data, [2.0, 4.0])

    def test_item_and_len(self):
        assert Tensor([[3.5]]).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((5, 2)))) == 5


class TestArithmeticBackward:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_sub_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [-1, -1])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, b.data)
        assert np.allclose(b.grad, a.data)

    def test_div_backward(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.0])

    def test_neg_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1.0])

    def test_reuse_same_tensor_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).sum().backward()
        assert np.allclose(a.grad, [4.0])

    def test_scalar_broadcast_backward(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        (a * 3.0).sum().backward()
        assert np.allclose(a.grad, np.full((3, 2), 3.0))

    def test_bias_broadcast_backward(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert np.allclose(b.grad, [4, 4, 4])

    def test_matmul_backward_matches_manual(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]), requires_grad=True)
        (a @ b).sum().backward()
        ones = np.ones((2, 2))
        assert np.allclose(a.grad, ones @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ ones)

    def test_batched_matmul_shapes(self):
        a = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).standard_normal((2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape

    def test_rsub_rdiv_radd(self):
        a = Tensor([2.0], requires_grad=True)
        assert np.allclose((5.0 - a).data, [3.0])
        assert np.allclose((8.0 / a).data, [4.0])
        assert np.allclose((1.0 + a).data, [3.0])

    def test_backward_requires_scalar_without_seed(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()


class TestUnaryAndReductions:
    def test_exp_log_roundtrip_gradient(self):
        a = Tensor([0.5, 1.5], requires_grad=True)
        a.exp().log().sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_tanh_value(self):
        assert Tensor([0.0]).tanh().data == pytest.approx(0.0)

    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_value_and_grad(self):
        a = Tensor(np.array([[2.0, 4.0]]), requires_grad=True)
        m = a.mean()
        assert m.data == pytest.approx(3.0)
        m.backward()
        assert np.allclose(a.grad, [[0.5, 0.5]])

    def test_var_matches_numpy(self):
        data = np.random.default_rng(3).standard_normal((4, 5))
        assert np.allclose(Tensor(data).var(axis=1).data, data.var(axis=1))

    def test_max_min(self):
        a = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        assert np.allclose(a.max(axis=1).data, [5.0, 3.0])
        assert np.allclose(a.min(axis=1).data, [1.0, 2.0])
        a.max().backward()
        assert a.grad[0, 1] == pytest.approx(1.0)
        assert a.grad.sum() == pytest.approx(1.0)

    def test_mean_axis_tuple(self):
        data = np.random.default_rng(0).standard_normal((2, 3, 4))
        assert np.allclose(Tensor(data).mean(axis=(1, 2)).data, data.mean(axis=(1, 2)))


class TestShapes:
    def test_reshape_and_grad(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_transpose_roundtrip(self):
        data = np.random.default_rng(0).standard_normal((2, 3, 4))
        t = Tensor(data, requires_grad=True)
        out = t.transpose(0, 2, 1).transpose(0, 2, 1)
        assert np.allclose(out.data, data)
        out.sum().backward()
        assert np.allclose(t.grad, np.ones_like(data))

    def test_T_property(self):
        data = np.arange(6, dtype=float).reshape(2, 3)
        assert Tensor(data).T.shape == (3, 2)

    def test_getitem_int_array_backward(self):
        a = Tensor(np.arange(5, dtype=float), requires_grad=True)
        idx = np.array([0, 0, 3])
        a[idx].sum().backward()
        assert np.allclose(a.grad, [2, 0, 0, 1, 0])

    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2).sum().backward()
        assert np.allclose(a.grad, np.full((2, 2), 2.0))
        assert np.allclose(b.grad, np.full((3, 2), 2.0))

    def test_broadcast_to_backward(self):
        a = Tensor(np.ones((1, 3)), requires_grad=True)
        a.broadcast_to((4, 3)).sum().backward()
        assert np.allclose(a.grad, np.full((1, 3), 4.0))

    def test_flatten(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.flatten(start_dim=1).shape == (2, 12)
        assert a.flatten().shape == (24,)

    def test_swapaxes(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.swapaxes(0, 2).shape == (4, 3, 2)


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert (a * 2).requires_grad

    def test_a_grad_off_result_has_no_backward_or_parents(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        frozen = Tensor(np.ones((2, 3)))
        with no_grad():
            results = [a * 2, F.softmax(a), apply_op(tape.RESHAPE, (a,), shape=(3, 2))]
        results.append(frozen + frozen)  # grad on, but no input requires it
        for out in results:
            assert not out.requires_grad
            assert out._backward is None and out._parents == ()

    def test_a_fresh_thread_reads_the_defaults_without_setting_them(self):
        import threading

        from repro.autograd.tensor import _MODE_STATE, get_default_dtype

        seen = {}

        def worker():
            seen["set"] = dict(vars(_MODE_STATE)), dict(vars(tape._TRACING_STATE))
            seen["read"] = (_MODE_STATE.grad_enabled, get_default_dtype(), tape._TRACING_STATE.tape)
            seen["grad"] = (Tensor(np.ones(2), requires_grad=True) * 2.0).requires_grad

        with no_grad(), tape.tracing(tape.Tape()):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["set"] == ({}, {})
        assert seen["read"] == (True, np.dtype(np.float64), None)
        assert seen["grad"] is True

    def test_an_array_at_the_run_dtype_is_held_without_a_copy(self):
        array = np.ones(3)
        assert Tensor(array).data is array
        assert Tensor(array.astype(np.float32)).dtype == np.float64  # other dtypes are cast
        assert Tensor(np.float64(2.0)).data.shape == ()  # scalars become 0-d arrays


class TestUnbroadcast:
    def test_identity(self):
        grad = np.ones((2, 3))
        assert unbroadcast(grad, (2, 3)).shape == (2, 3)

    def test_leading_dims_summed(self):
        grad = np.ones((4, 2, 3))
        assert np.allclose(unbroadcast(grad, (2, 3)), np.full((2, 3), 4.0))

    def test_size_one_dims_summed(self):
        grad = np.ones((4, 3))
        assert np.allclose(unbroadcast(grad, (1, 3)), np.full((1, 3), 4.0))

    @given(small_arrays())
    @settings(max_examples=25, deadline=None)
    def test_unbroadcast_preserves_total_mass(self, array):
        reduced = unbroadcast(array, (1,) * array.ndim)
        assert np.allclose(reduced.sum(), array.sum())


class TestGradientProperties:
    @given(small_arrays(), st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_scaling_linearity(self, array, scale):
        a = Tensor(array, requires_grad=True)
        (a * scale).sum().backward()
        assert np.allclose(a.grad, np.full(array.shape, scale))

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, array):
        a = Tensor(array, requires_grad=True)
        a.sum().backward()
        assert np.allclose(a.grad, np.ones_like(array))

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_addition_gradient_shares_shape(self, array):
        a = Tensor(array, requires_grad=True)
        b = Tensor(array.copy(), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == array.shape
        assert b.grad.shape == array.shape


class TestGraphFreeing:
    def test_backward_releases_interior_nodes(self):
        rng = np.random.default_rng(123)
        x = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        h = (x @ x.T).tanh()
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

    def test_each_node_is_freed_as_soon_as_its_vjp_has_run(self):
        """While a node's vjp runs, every node walked before it has already
        dropped its op context (and the arrays saved there)."""
        saved, alive_at_vjp = [], []

        def forward(ctx, x):
            ctx.saved = x * 2.0  # held by this context alone
            saved.append(weakref.ref(ctx.saved))
            return x + 1.0

        def vjp(ctx, grad, needs):
            alive_at_vjp.append([ref() is not None for ref in saved])
            return (grad * 2.0,)

        keep = Op("keep", forward, vjp)
        h = Tensor(np.ones((4, 4)), requires_grad=True)
        for _ in range(3):
            h = apply_op(keep, (h,))
        h.sum().backward()
        # The walk runs the third application's vjp first, then the second's.
        assert alive_at_vjp == [[True, True, True], [True, True, False], [True, False, False]]
        assert [ref() for ref in saved] == [None, None, None]

    def test_nodes_no_gradient_reached_are_freed(self):
        cut = Op("cut", lambda ctx, x: x.copy(), lambda ctx, grad, needs: (None,))
        x = Tensor(np.arange(3.0), requires_grad=True)
        below = x * 2.0  # walked, but ``cut`` sends it no gradient
        closure = weakref.ref(below._backward)
        loss = apply_op(cut, (below,)).sum() + (x * x).sum()
        loss.backward()
        assert below._backward is None and below._parents == ()
        assert closure() is None
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_second_backward_is_harmless_noop_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        first = x.grad.copy()
        loss.backward()  # freed graph: no parents left to traverse
        assert np.array_equal(x.grad, first)  # nothing flows back twice


def _positive(rng, shape):
    return rng.uniform(0.5, 2.0, shape)


def _distinct(rng, shape):
    # values 0.5 apart, so no finite-difference step can swap the argmax
    return 0.5 * rng.permutation(int(np.prod(shape))).reshape(shape).astype(float)


#: One case per op of the core table in ``autograd/tape.py``: input arrays
#: drawn from a generator, and the op's kwargs.  Inputs broadcast, repeat
#: indices and stay inside each op's smooth domain, so every vjp branch is hit
#: and the finite difference is well defined.
OP_CASES = {
    "add": (lambda r: [r.standard_normal((3, 4)), r.standard_normal(4)], {}),
    "sub": (lambda r: [r.standard_normal((3, 1)), r.standard_normal((3, 4))], {}),
    "mul": (lambda r: [r.standard_normal((2, 3)), r.standard_normal((1, 3))], {}),
    "div": (lambda r: [r.standard_normal((3, 4)), _positive(r, (3, 1))], {}),
    "neg": (lambda r: [r.standard_normal((3, 4))], {}),
    "matmul": (lambda r: [r.standard_normal((2, 3, 4)), r.standard_normal((4, 5))], {}),
    "exp": (lambda r: [r.standard_normal((3, 4))], {}),
    "log": (lambda r: [_positive(r, (3, 4))], {}),
    "sqrt": (lambda r: [_positive(r, (3, 4))], {}),
    "tanh": (lambda r: [r.standard_normal((3, 4))], {}),
    "sum": (lambda r: [r.standard_normal((2, 3, 4))], {"axis": (0, 2), "keepdims": True}),
    "max": (lambda r: [_distinct(r, (3, 4))], {"axis": 1, "keepdims": False}),
    "reshape": (lambda r: [r.standard_normal((3, 4))], {"shape": (2, 6)}),
    "transpose": (lambda r: [r.standard_normal((2, 3, 4))], {"axes": (2, 0, 1)}),
    "broadcast_to": (lambda r: [r.standard_normal((3, 1))], {"shape": (2, 3, 4)}),
    "getitem": (
        lambda r: [r.standard_normal((4, 5))],
        {"index": (np.array([0, 2, 2]), slice(1, 4))},
    ),
    "concatenate": (
        lambda r: [r.standard_normal((2, 1)), r.standard_normal((2, 3)), r.standard_normal((2, 2))],
        {"axis": 1},
    ),
}


def _core_ops():
    return {op.name: op for op in vars(tape).values() if isinstance(op, Op)}


class TestCoreOpTable:
    """Every differentiable op of the core table against central differences.

    The loss is the op's output weighted by a random cotangent, so the check
    sees the vjp's full output, not only its row sums.
    """

    def test_every_differentiable_op_has_a_case(self):
        differentiable = {name for name, op in _core_ops().items() if op.differentiable}
        assert differentiable == set(OP_CASES)

    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_vjp_matches_finite_differences_for_every_input(self, name):
        op = _core_ops()[name]
        make_inputs, kwargs = OP_CASES[name]
        rng = np.random.default_rng(sorted(OP_CASES).index(name))
        inputs = [Tensor(array, requires_grad=True) for array in make_inputs(rng)]
        out = op.forward(OpContext(), *(t.data for t in inputs), **kwargs)
        cotangent = Tensor(rng.standard_normal(out.shape))

        def loss(*tensors):
            return (apply_op(op, tensors, **kwargs) * cotangent).sum()

        for wrt in range(len(inputs)):
            assert check_gradient(loss, inputs, wrt=wrt), f"{name}: input {wrt}"
