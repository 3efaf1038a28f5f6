"""Op table and tape recording for the autograd core.

Every differentiable operation of :class:`repro.autograd.tensor.Tensor` (and
the primitive ops registered by :mod:`repro.autograd.functional`) is described
by an :class:`Op`: a ``forward`` that computes the numpy result and a ``vjp``
that maps an output gradient to per-input gradients.  Eager execution builds
its backward closures *from* these rules; it is the only way a training step
computes.

The op table has one other interpreter, the serving plane's forward-only
:class:`~repro.serving.engine.ForwardPlan`, and this module holds what it
needs: :class:`Tape` records every op application inside a ``tracing``
context as an :class:`OpRecord` over integer slots, :class:`PlanCache` bounds
the compiled plans a snapshot keeps per input shape, and :class:`PlanError`
is how a trace that cannot be compiled sends its shape back to eager.

The module is deliberately pure numpy — :mod:`repro.autograd.tensor` imports
it, never the other way around.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


# --------------------------------------------------------------------------- #
# Broadcasting helper (re-exported by tensor.py)
# --------------------------------------------------------------------------- #
def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting.

    Used by every binary op so that, e.g., a bias of shape ``(d,)`` added to a
    batch of shape ``(n, d)`` receives a gradient of shape ``(d,)``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --------------------------------------------------------------------------- #
# Op descriptors
# --------------------------------------------------------------------------- #
class OpContext:
    """Scratch space one op application shares between forward and vjp."""

    __slots__ = ("__dict__",)


class PlanError(RuntimeError):
    """A trace cannot be compiled into a plan; callers fall back to eager."""


@dataclass(frozen=True)
class Op:
    """One differentiable operation.

    ``forward(ctx, *arrays, **kwargs)`` returns the result array and stashes
    whatever the vjp needs on ``ctx``; ``vjp(ctx, grad, needs)`` returns one
    gradient (or None) per input, in input order.

    ``effect`` is a predicate over one application's kwargs: true when that
    forward writes to an array it received as a kwarg (train-mode batch norm
    updating its running statistics).  The serving plane refuses to compile a
    trace holding such a record.
    """

    name: str
    forward: Callable[..., np.ndarray]
    vjp: Optional[Callable[..., Sequence[Optional[np.ndarray]]]] = None
    differentiable: bool = True
    effect: Optional[Callable[[Dict[str, Any]], bool]] = None


@dataclass
class OpRecord:
    """One recorded op application over tape slots."""

    op: Op
    input_slots: Tuple[int, ...]
    out_slot: int
    kwargs: Dict[str, Any]
    out_dtype: np.dtype

    @property
    def has_effect(self) -> bool:
        """Does replaying this record write to state outside the plan?"""
        return self.op.effect is not None and bool(self.op.effect(self.kwargs))


# --------------------------------------------------------------------------- #
# Tape recording
# --------------------------------------------------------------------------- #
# Thread-local, not process-global: the serving plane traces forward plans on
# several worker threads at once (and beside a training thread that must not
# be recorded), and a shared global would splice one thread's ops into
# another's tape.  ``tape = None`` is a class attribute, so a thread that never
# traced reads it without an attribute miss.
class _TracingState(threading.local):
    tape: Optional["Tape"] = None


_TRACING_STATE = _TracingState()


@contextlib.contextmanager
def tracing(tape: "Tape"):
    """Record every op applied in this context onto ``tape`` (this thread only)."""
    if _TRACING_STATE.tape is not None:
        raise RuntimeError("nested tracing is not supported")
    _TRACING_STATE.tape = tape
    try:
        yield tape
    finally:
        _TRACING_STATE.tape = None


class Tape:
    """A recording of op applications over integer tensor slots.

    Slots are assigned on first sight; the tape keeps a strong reference to
    every tensor it slots, so traced leaves (parameters, constants) stay alive
    and their ``id()`` keys stay stable while a plan is compiled from it.
    """

    def __init__(self) -> None:
        self.records: List[OpRecord] = []
        self._slots: Dict[int, int] = {}  # id(tensor) -> slot
        self._tensors: List[Any] = []  # slot -> tensor
        self._inputs: Dict[str, int] = {}  # input name -> slot

    def mark_input(self, name: str, tensor: Any) -> None:
        """Mark a leaf tensor (the batch images) as a named plan input."""
        self._inputs[name] = self._slot_for(tensor)

    def _slot_for(self, tensor: Any) -> int:
        slot = self._slots.get(id(tensor))
        if slot is None:
            slot = len(self._tensors)
            self._slots[id(tensor)] = slot
            self._tensors.append(tensor)
        return slot

    def record(self, op: Op, inputs: Sequence[Any], out: Any, kwargs: Dict[str, Any]) -> None:
        self.records.append(
            OpRecord(
                op=op,
                input_slots=tuple(self._slot_for(t) for t in inputs),
                out_slot=self._slot_for(out),
                kwargs=kwargs,
                out_dtype=out.data.dtype,
            )
        )


class PlanCache:
    """LRU-bounded keyed plan store with hit/miss/evict counters.

    Its callers are serving threads sharing one snapshot, so a lookup (with
    its recency bump and counter) and an insert (with its evictions) each
    happen under one lock: a ``put`` on another thread can never evict the key
    a ``get`` is about to touch.
    """

    def __init__(self, max_plans: int = 32) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self._plans: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.max_plans = max_plans
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
            else:
                self.hits += 1
                self._plans.move_to_end(key)
            return plan

    def put(self, key: Any, plan: Any) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._plans)


# --------------------------------------------------------------------------- #
# The tensor-op table
# --------------------------------------------------------------------------- #
def _add_forward(ctx, a, b):
    ctx.a_shape = a.shape
    ctx.b_shape = b.shape
    return a + b


def _add_vjp(ctx, grad, needs):
    return (
        unbroadcast(grad, ctx.a_shape) if needs[0] else None,
        unbroadcast(grad, ctx.b_shape) if needs[1] else None,
    )


def _sub_forward(ctx, a, b):
    ctx.a_shape = a.shape
    ctx.b_shape = b.shape
    return a - b


def _sub_vjp(ctx, grad, needs):
    return (
        unbroadcast(grad, ctx.a_shape) if needs[0] else None,
        unbroadcast(-grad, ctx.b_shape) if needs[1] else None,
    )


def _mul_forward(ctx, a, b):
    ctx.a = a
    ctx.b = b
    return a * b


def _mul_vjp(ctx, grad, needs):
    return (
        unbroadcast(grad * ctx.b, ctx.a.shape) if needs[0] else None,
        unbroadcast(grad * ctx.a, ctx.b.shape) if needs[1] else None,
    )


def _div_forward(ctx, a, b):
    ctx.a = a
    ctx.b = b
    return a / b


def _div_vjp(ctx, grad, needs):
    return (
        unbroadcast(grad / ctx.b, ctx.a.shape) if needs[0] else None,
        unbroadcast(-grad * ctx.a / (ctx.b ** 2), ctx.b.shape) if needs[1] else None,
    )


def _neg_forward(ctx, a):
    return -a


def _neg_vjp(ctx, grad, needs):
    return (-grad,)


def _matmul_forward(ctx, a, b):
    ctx.a = a
    ctx.b = b
    return np.matmul(a, b)


def _matmul_vjp(ctx, grad, needs):
    a, b = ctx.a, ctx.b
    if a.ndim == 1 and b.ndim == 1:
        return (grad * b if needs[0] else None, grad * a if needs[1] else None)
    a_mat = a[None, :] if a.ndim == 1 else a
    b_mat = b[:, None] if b.ndim == 1 else b
    grad_mat = grad
    if a.ndim == 1:
        grad_mat = np.expand_dims(grad_mat, -2)
    if b.ndim == 1:
        grad_mat = np.expand_dims(grad_mat, -1)
    grad_a = grad_b = None
    if needs[0]:
        grad_a = np.matmul(grad_mat, np.swapaxes(b_mat, -1, -2))
        if a.ndim == 1:
            grad_a = np.squeeze(grad_a, -2)
        grad_a = unbroadcast(grad_a, a.shape)
    if needs[1]:
        grad_b = np.matmul(np.swapaxes(a_mat, -1, -2), grad_mat)
        if b.ndim == 1:
            grad_b = np.squeeze(grad_b, -1)
        grad_b = unbroadcast(grad_b, b.shape)
    return (grad_a, grad_b)


def _exp_forward(ctx, a):
    out = np.exp(a)
    ctx.out = out
    return out


def _exp_vjp(ctx, grad, needs):
    return (grad * ctx.out,)


def _log_forward(ctx, a):
    ctx.a = a
    return np.log(a)


def _log_vjp(ctx, grad, needs):
    return (grad / ctx.a,)


def _sqrt_forward(ctx, a):
    out = np.sqrt(a)
    ctx.out = out
    return out


def _sqrt_vjp(ctx, grad, needs):
    return (grad * 0.5 / np.maximum(ctx.out, 1e-12),)


def _tanh_forward(ctx, a):
    out = np.tanh(a)
    ctx.out = out
    return out


def _tanh_vjp(ctx, grad, needs):
    return (grad * (1.0 - ctx.out ** 2),)


def _relu_forward(ctx, a):
    mask = a > 0
    ctx.mask = mask
    return a * mask


def _relu_vjp(ctx, grad, needs):
    return (grad * ctx.mask,)


def _sum_forward(ctx, a, *, axis, keepdims):
    ctx.in_shape = a.shape
    ctx.in_ndim = a.ndim
    ctx.axis = axis
    ctx.keepdims = keepdims
    return a.sum(axis=axis, keepdims=keepdims)


def _sum_vjp(ctx, grad, needs):
    expanded = grad
    if ctx.axis is not None and not ctx.keepdims:
        axes = ctx.axis if isinstance(ctx.axis, tuple) else (ctx.axis,)
        axes = tuple(a % ctx.in_ndim for a in axes)
        for a in sorted(axes):
            expanded = np.expand_dims(expanded, a)
    return (np.broadcast_to(expanded, ctx.in_shape).copy(),)


def _max_forward(ctx, a, *, axis, keepdims):
    ctx.a = a
    ctx.axis = axis
    ctx.keepdims = keepdims
    return a.max(axis=axis, keepdims=keepdims)


def _max_vjp(ctx, grad, needs):
    a, axis, keepdims = ctx.a, ctx.axis, ctx.keepdims
    expanded_data = a.max(axis=axis, keepdims=True)
    mask = (a == expanded_data).astype(a.dtype)
    mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
    expanded_grad = grad
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(ax % a.ndim for ax in axes):
            expanded_grad = np.expand_dims(expanded_grad, ax)
    return (mask * expanded_grad,)


def _reshape_forward(ctx, a, *, shape):
    ctx.in_shape = a.shape
    return a.reshape(shape)


def _reshape_vjp(ctx, grad, needs):
    return (grad.reshape(ctx.in_shape),)


def _transpose_forward(ctx, a, *, axes):
    ctx.inverse = np.argsort(axes)
    return a.transpose(axes)


def _transpose_vjp(ctx, grad, needs):
    return (grad.transpose(ctx.inverse),)


def _broadcast_to_forward(ctx, a, *, shape):
    ctx.in_shape = a.shape
    return np.broadcast_to(a, shape).copy()


def _broadcast_to_vjp(ctx, grad, needs):
    return (unbroadcast(grad, ctx.in_shape),)


def _getitem_forward(ctx, a, *, index):
    ctx.a = a
    ctx.index = index
    return a[index]


def _getitem_vjp(ctx, grad, needs):
    full = np.zeros_like(ctx.a)
    np.add.at(full, ctx.index, grad)
    return (full,)


def _concatenate_forward(ctx, *arrays, axis):
    ctx.axis = axis
    ctx.sizes = [a.shape[axis] for a in arrays]
    ctx.offsets = np.cumsum([0] + ctx.sizes)
    return np.concatenate(arrays, axis=axis)


def _concatenate_vjp(ctx, grad, needs):
    grads = []
    for i, (start, end) in enumerate(zip(ctx.offsets[:-1], ctx.offsets[1:])):
        if not needs[i]:
            grads.append(None)
            continue
        slicer = [slice(None)] * grad.ndim
        slicer[ctx.axis] = slice(start, end)
        grads.append(grad[tuple(slicer)])
    return tuple(grads)


def _detach_forward(ctx, a):
    return a


ADD = Op("add", _add_forward, _add_vjp)
SUB = Op("sub", _sub_forward, _sub_vjp)
MUL = Op("mul", _mul_forward, _mul_vjp)
DIV = Op("div", _div_forward, _div_vjp)
NEG = Op("neg", _neg_forward, _neg_vjp)
MATMUL = Op("matmul", _matmul_forward, _matmul_vjp)
EXP = Op("exp", _exp_forward, _exp_vjp)
LOG = Op("log", _log_forward, _log_vjp)
SQRT = Op("sqrt", _sqrt_forward, _sqrt_vjp)
TANH = Op("tanh", _tanh_forward, _tanh_vjp)
RELU = Op("relu", _relu_forward, _relu_vjp)
SUM = Op("sum", _sum_forward, _sum_vjp)
MAX = Op("max", _max_forward, _max_vjp)
RESHAPE = Op("reshape", _reshape_forward, _reshape_vjp)
TRANSPOSE = Op("transpose", _transpose_forward, _transpose_vjp)
BROADCAST_TO = Op("broadcast_to", _broadcast_to_forward, _broadcast_to_vjp)
GETITEM = Op("getitem", _getitem_forward, _getitem_vjp)
CONCATENATE = Op("concatenate", _concatenate_forward, _concatenate_vjp)
DETACH = Op("detach", _detach_forward, None, differentiable=False)


__all__ = [
    "Op",
    "OpContext",
    "OpRecord",
    "Tape",
    "PlanCache",
    "PlanError",
    "tracing",
    "unbroadcast",
]
