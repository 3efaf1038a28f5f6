"""A tape-based reverse-mode autodiff :class:`Tensor` built on numpy.

The design mirrors the small core of PyTorch that the RefFiL pipeline needs:
every operation is described by an :class:`repro.autograd.tape.Op` (forward +
explicit vjp rule); applying one through :func:`apply_op` computes the result,
wires a backward closure built from the op's vjp (only when grad is on and an
input requires grad), and — when a
:class:`~repro.autograd.tape.Tape` is tracing — records the application so the
serving plane can compile the forward pass into a plan.  Recording changes
nothing numerically.

Calling :meth:`Tensor.backward` performs a topological sort of the recorded
graph, accumulates gradients into ``tensor.grad``, and frees the graph as it
walks (each interior node drops ``_backward``/``_parents`` once its vjp has
run), so a batch's saved activations are released during its backward pass
rather than after it.

Only float arrays participate in differentiation.  Integer arrays (labels,
indices) are carried around as plain numpy arrays by the rest of the code
base.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import tape as _tape
from repro.autograd.tape import _TRACING_STATE, Op, OpContext, unbroadcast

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

#: Grad mode and the active compute dtype are *thread-local*, not
#: process-global: the serving plane's worker threads run ``no_grad``
#: forwards (under their snapshot's dtype) concurrently with a training
#: thread that needs gradients on, and shared globals would let one
#: thread's mode bleed into the other's step.  The defaults are class
#: attributes, so a fresh thread reads grad on and float64 without setting
#: (or failing to find) anything.
class _ModeState(threading.local):
    grad_enabled = True
    default_dtype = np.dtype(np.float64)


_MODE_STATE = _ModeState()


def get_default_dtype() -> np.dtype:
    """Return the dtype newly created tensors (and parameters) use."""
    return _MODE_STATE.default_dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set this thread's compute dtype (``float32`` or ``float64``).

    Everything downstream of tensor creation — weight initialisation, dataset
    batches, optimiser state — picks the dtype up from here, so switching to
    float32 halves the memory bandwidth of the whole pipeline.  Gradient
    checking should stay at float64 (wrap it in ``default_dtype(np.float64)``).
    Returns the previous dtype so callers can restore it.
    """
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"default dtype must be a float dtype, got {resolved}")
    previous = get_default_dtype()
    _MODE_STATE.default_dtype = resolved
    return previous


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager that temporarily switches the compute dtype."""
    previous = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    previous = _MODE_STATE.grad_enabled
    _MODE_STATE.grad_enabled = False
    try:
        yield
    finally:
        _MODE_STATE.grad_enabled = previous


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    dtype = _MODE_STATE.default_dtype
    if type(value) is np.ndarray and value.dtype is dtype:
        return value  # what ``np.asarray`` would return, without the call
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A differentiable, numpy-backed multi-dimensional array."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_pending_grad",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _MODE_STATE.grad_enabled
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._pending_grad: Optional[np.ndarray] = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic protocol / inspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return apply_op(_tape.DETACH, (self,))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        The graph is freed as the walk goes: each interior node drops its
        ``_backward`` closure (and with it the op's saved context) and its
        parent links as soon as its vjp has run and its parents' gradients
        are collected, and a node no gradient reached is dropped at its turn.
        When ``backward`` returns, nothing of the graph it walked is left.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` which requires the tensor to
            be a scalar (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape).copy()

        # Topological order of the graph reachable from self.
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Walk children before parents, popping each node off ``order``: once
        # its vjp has run and its parents' stashed gradients are collected,
        # nothing later reads its closure (the op context: conv columns,
        # batch-norm ``xhat``) or its parent links, so they are dropped at
        # once and the walk's peak is its live working set.  A node no
        # gradient reached is freed the same way when its turn comes.
        grads = {id(self): grad}
        while order:
            node = order.pop()
            node_grad = grads.pop(id(node), None)
            if node._backward is None:
                if node_grad is not None:
                    node._accumulate(node_grad)
                continue
            if node_grad is not None:
                # Leaf accumulation happens inside each backward closure via
                # _send_grad; interior nodes stash a pending gradient that is
                # collected here and folded into the traversal.
                node._backward(node_grad)
                for parent in node._parents:
                    stashed = parent._pending_grad
                    if stashed is not None:
                        existing = grads.get(id(parent))
                        grads[id(parent)] = stashed if existing is None else existing + stashed
                        parent._pending_grad = None
            node._backward = None
            node._parents = ()
            node._pending_grad = None

    # The backward closures communicate with the traversal above by calling
    # ``_send_grad`` on their parents rather than mutating ``grad`` directly.
    def _send_grad(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self._backward is None and not self._parents:
            # Leaf tensor: accumulate immediately.
            self._accumulate(grad)
            return
        if self._pending_grad is None:
            self._pending_grad = grad
        else:
            self._pending_grad = self._pending_grad + grad

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_tape.ADD, (self, other))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_tape.SUB, (self, other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_tape.MUL, (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_tape.DIV, (self, other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __neg__(self) -> "Tensor":
        return apply_op(_tape.NEG, (self,))

    # ------------------------------------------------------------------ #
    # Comparison (non-differentiable, returns plain numpy bool arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # Matrix multiplication
    # ------------------------------------------------------------------ #
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return apply_op(_tape.MATMUL, (self, other))

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) @ self

    def matmul(self, other: ArrayLike) -> "Tensor":
        return self @ other

    # ------------------------------------------------------------------ #
    # Unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return apply_op(_tape.EXP, (self,))

    def log(self) -> "Tensor":
        return apply_op(_tape.LOG, (self,))

    def sqrt(self) -> "Tensor":
        return apply_op(_tape.SQRT, (self,))

    def tanh(self) -> "Tensor":
        return apply_op(_tape.TANH, (self,))

    def relu(self) -> "Tensor":
        return apply_op(_tape.RELU, (self,))

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_tape.SUM, (self,), axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centred = self - mean
        result = (centred * centred).mean(axis=axis, keepdims=keepdims)
        return result

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_tape.MAX, (self,), axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -(-self).max(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op(_tape.RESHAPE, (self,), shape=shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return apply_op(_tape.TRANSPOSE, (self,), axes=axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        return apply_op(_tape.BROADCAST_TO, (self,), shape=tuple(shape))

    def __getitem__(self, index) -> "Tensor":
        return apply_op(_tape.GETITEM, (self,), index=index)

    # ------------------------------------------------------------------ #
    # Combinators
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return apply_op(_tape.CONCATENATE, tuple(tensors), axis=axis)


# --------------------------------------------------------------------------- #
# Op application: the single gateway every tensor operation goes through
# --------------------------------------------------------------------------- #
def apply_op(op: Op, inputs: Sequence[ArrayLike], **kwargs) -> Tensor:
    """Apply ``op`` eagerly and (when tracing) record it on the active tape.

    The result joins the graph only when grad is on and some input requires
    grad; otherwise no ``needs``, backward closure or parent links are built,
    which is every op of a ``no_grad`` forward.
    """
    tensors = tuple(t if isinstance(t, Tensor) else Tensor(t) for t in inputs)
    ctx = OpContext()
    out = Tensor(op.forward(ctx, *(t.data for t in tensors), **kwargs))
    if op.differentiable and _MODE_STATE.grad_enabled:
        parents = tuple(t for t in tensors if t.requires_grad)
        if parents:
            needs = tuple(t.requires_grad for t in tensors)

            def backward(grad: np.ndarray) -> None:
                input_grads = op.vjp(ctx, grad, needs)
                for tensor, input_grad in zip(tensors, input_grads):
                    if input_grad is not None:
                        tensor._send_grad(input_grad)

            out.requires_grad = True
            out._parents = parents
            out._backward = backward
    tape = _TRACING_STATE.tape
    if tape is not None:
        tape.record(op, tensors, out, kwargs)
    return out


__all__ = [
    "Tensor",
    "apply_op",
    "no_grad",
    "unbroadcast",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
]
