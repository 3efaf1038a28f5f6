"""Op table, tape recording and compiled replay plans for the autograd core.

This module is the kernel plane's substrate.  Every differentiable operation
of :class:`repro.autograd.tensor.Tensor` (and the primitive ops registered by
:mod:`repro.autograd.functional`) is described by an :class:`Op`: a ``forward``
that computes the numpy result and a ``vjp`` that maps an output gradient to
per-input gradients.  Eager mode builds its backward closures *from* these
rules, so eager execution is a tape of length one and recording changes
nothing numerically.

On top of the op table sit three layers:

* :class:`Tape` — records every op application inside a ``tracing`` context as
  an :class:`OpRecord` over integer slots, with per-batch arrays (labels,
  rng-driven masks' generators, normalisation buffers) captured as *dynamic*
  bindings rather than baked-in constants.
* :class:`Plan` — compiles one traced client step into a replayable program:
  the forward record list plus a backward schedule computed with the identical
  topological traversal :meth:`Tensor.backward` uses, so replayed gradients
  accumulate in exactly the same order (bit-for-bit parity with eager).  A
  plan holds no interpreter of its own: :mod:`repro.autograd.planopt`
  compiles it into the instruction stream that :meth:`Plan.execute` and
  :meth:`Plan.execute_batched` run, and a plan that cannot be compiled raises
  :class:`PlanError` so the caller runs that shape eagerly.
* batched replay — one plan runs for K clients at once by stacking
  parameters and batches along a leading axis.  Per-op batching follows one of
  three rules (``pad`` for elementwise/matmul broadcasting, ``axis`` for
  axis-kwarg remapping, ``custom`` for conv/pool/indexing); ops without a rule
  (dropout's per-client rng stream) mark the plan unbatchable and callers fall
  back per client.

The module is deliberately pure numpy — :mod:`repro.autograd.tensor` imports
it, never the other way around.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


# --------------------------------------------------------------------------- #
# Broadcasting helper (moved here from tensor.py; re-exported there)
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
# Kernel mode: process-global knob mirroring the default-dtype machinery
# --------------------------------------------------------------------------- #
KERNELS = ("eager", "tape", "batched")

_KERNEL = "eager"


def get_kernel() -> str:
    """Return the active kernel mode (``eager`` / ``tape`` / ``batched``)."""
    return _KERNEL


def set_kernel(kernel: str) -> str:
    """Set the process-wide kernel mode; returns the previous one."""
    global _KERNEL
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    previous = _KERNEL
    _KERNEL = kernel
    return previous


@contextlib.contextmanager
def kernel_mode(kernel: str):
    """Context manager that temporarily switches the kernel mode."""
    previous = set_kernel(kernel)
    try:
        yield
    finally:
        set_kernel(previous)


# --------------------------------------------------------------------------- #
# Op descriptors
# --------------------------------------------------------------------------- #
class OpContext:
    """Scratch space one op application shares between forward and vjp."""

    __slots__ = ("__dict__",)


class PlanError(RuntimeError):
    """A traced step cannot be compiled or replayed; callers fall back to eager."""


class PlanNotBatchable(PlanError):
    """A compiled plan contains a record the lockstep engine cannot vectorize."""


@dataclass(frozen=True)
class Op:
    """One differentiable operation: eager semantics plus batching contract.

    ``forward(ctx, *arrays, **kwargs)`` returns the result array and stashes
    whatever the vjp needs on ``ctx``; ``vjp(ctx, grad, needs)`` returns one
    gradient (or None) per input, in input order.  ``batch_rule`` selects how
    the lockstep engine vectorizes a record of this op over a leading client
    axis:

    * ``"pad"`` — reshape each stacked input to rank ``1 + traced_out_ndim``
      (leading K kept, singleton axes inserted after it) so numpy's trailing
      alignment broadcasts the client axis; covers all elementwise ops and
      matmul.
    * ``"axis"`` — inputs keep their stacked shape ``(K,) + orig`` and
      ``batch_kwargs`` remaps axis-like kwargs by one position.
    * ``"custom"`` — ``batched_forward`` / ``batched_vjp`` implement the
      vectorization directly (conv, pooling, fancy indexing).
    * ``None`` — not batchable (dropout: per-client rng streams cannot run in
      lockstep); a plan containing such a record falls back per client.

    ``effect`` is a predicate over one application's kwargs: true when that
    forward writes to an array it received as a kwarg (train-mode batch norm
    updating its running statistics).  Replay keeps such a record even when
    its output is dead, and the serving plane refuses to compile it.
    """

    name: str
    forward: Callable[..., np.ndarray]
    vjp: Optional[Callable[..., Sequence[Optional[np.ndarray]]]] = None
    batch_rule: Optional[str] = "pad"
    batch_kwargs: Optional[Callable[[Dict[str, Any], "BatchInfo"], Dict[str, Any]]] = None
    batched_forward: Optional[Callable[..., np.ndarray]] = None
    batched_vjp: Optional[Callable[..., Sequence[Optional[np.ndarray]]]] = None
    batch_check: Optional[Callable[["OpRecord"], bool]] = None
    differentiable: bool = True
    effect: Optional[Callable[[Dict[str, Any]], bool]] = None


class DynRef:
    """Placeholder for a dynamic kwarg value (per-batch array, rng, buffer)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynRef({self.name!r})"


@dataclass(frozen=True)
class BatchInfo:
    """Per-record facts the batched engine hands to custom rules."""

    k: int
    in_shapes: Tuple[Tuple[int, ...], ...]
    out_shape: Tuple[int, ...]
    in_batched: Tuple[bool, ...]
    dyn_kwargs: Dict[str, Any]


@dataclass
class OpRecord:
    """One recorded op application over tape slots."""

    op: Op
    input_slots: Tuple[int, ...]
    out_slot: int
    kwargs: Dict[str, Any]  # dynamic values replaced by DynRef
    needs: Tuple[bool, ...]  # per-input requires_grad at trace time
    out_requires: bool
    parent_slots: Tuple[int, ...]  # out._parents order (requires-grad filtered)
    in_shapes: Tuple[Tuple[int, ...], ...]
    out_shape: Tuple[int, ...]
    out_dtype: np.dtype

    @property
    def has_effect(self) -> bool:
        """Does replaying this record write to state outside the plan?"""
        return self.op.effect is not None and bool(self.op.effect(self.kwargs))


# --------------------------------------------------------------------------- #
# Tape recording
# --------------------------------------------------------------------------- #
# Thread-local, not process-global: the serving plane traces forward plans on
# its worker threads while a co-running training thread traces client steps,
# and a shared global would splice one thread's ops into the other's tape.
# Single-threaded behaviour is unchanged (one local slot, same lifecycle).
_TRACING_STATE = threading.local()


def active_tape() -> Optional["Tape"]:
    return getattr(_TRACING_STATE, "tape", None)


@contextlib.contextmanager
def tracing(tape: "Tape"):
    """Record every op applied in this context onto ``tape`` (this thread only)."""
    if getattr(_TRACING_STATE, "tape", None) is not None:
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
    and their ``id()`` keys stay stable for the plan's lifetime.
    """

    def __init__(self) -> None:
        self.records: List[OpRecord] = []
        self._slots: Dict[int, int] = {}  # id(tensor) -> slot
        self._tensors: List[Any] = []  # slot -> tensor
        self._dynamic: Dict[int, str] = {}  # id(obj) -> dynamic name
        self._dynamic_values: Dict[str, Any] = {}  # name -> traced object
        self._inputs: Dict[str, int] = {}  # input name -> slot

    def register_dynamic(self, name: str, obj: Any) -> None:
        """Mark ``obj`` (an array, rng, or buffer) as a per-replay binding.

        Anywhere ``obj`` appears in an op's kwargs it is recorded as a
        :class:`DynRef` instead of a constant, and replays may rebind it.
        """
        self._dynamic[id(obj)] = name
        self._dynamic_values[name] = obj

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

    def _scan_value(self, value: Any) -> Any:
        name = self._dynamic.get(id(value))
        if name is not None:
            return DynRef(name)
        if isinstance(value, tuple):
            return tuple(self._scan_value(v) for v in value)
        return value

    def _scan_kwargs(self, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        if not kwargs:
            return kwargs
        return {k: self._scan_value(v) for k, v in kwargs.items()}

    def record(self, op: Op, inputs: Sequence[Any], out: Any, kwargs: Dict[str, Any]) -> None:
        self.records.append(
            OpRecord(
                op=op,
                input_slots=tuple(self._slot_for(t) for t in inputs),
                out_slot=self._slot_for(out),
                kwargs=self._scan_kwargs(kwargs),
                needs=tuple(t.requires_grad for t in inputs),
                out_requires=out.requires_grad,
                parent_slots=tuple(self._slot_for(p) for p in out._parents),
                in_shapes=tuple(t.data.shape for t in inputs),
                out_shape=out.data.shape,
                out_dtype=out.data.dtype,
            )
        )


def _resolve_value(value: Any, dyn: Dict[str, Any]) -> Any:
    if isinstance(value, DynRef):
        return dyn[value.name]
    if isinstance(value, tuple):
        return tuple(_resolve_value(v, dyn) for v in value)
    return value


def _resolve_kwargs(kwargs: Dict[str, Any], dyn: Dict[str, Any]) -> Dict[str, Any]:
    if not kwargs:
        return kwargs
    return {k: _resolve_value(v, dyn) for k, v in kwargs.items()}


def _dyn_flags(value: Any) -> Any:
    """Mirror a recorded kwarg value with True where a DynRef sits."""
    if isinstance(value, DynRef):
        return True
    if isinstance(value, tuple):
        return tuple(_dyn_flags(v) for v in value)
    return False


def _contains_dynref(value: Any) -> bool:
    if isinstance(value, DynRef):
        return True
    if isinstance(value, tuple):
        return any(_contains_dynref(v) for v in value)
    return False


# --------------------------------------------------------------------------- #
# Compiled plans
# --------------------------------------------------------------------------- #
class Plan:
    """One traced client step compiled for replay.

    The forward program is the record list in chronological order (so a
    train-mode batch norm updates its running statistics where eager did); the
    backward schedule is the slot-level topological order computed with the *identical*
    iterative DFS :meth:`Tensor.backward` uses, so a replayed backward visits
    records and accumulates gradients in exactly the same order as eager —
    tape-mode replay is bit-for-bit.

    Compile before calling ``loss.backward()``: backward frees the graph.
    """

    def __init__(self, tape: Tape, loss: Any) -> None:
        self.tape = tape
        self.records = tape.records
        loss_slot = tape._slots.get(id(loss))
        if loss_slot is None:
            raise PlanError("loss tensor was not produced under this tape")
        self.loss_slot = loss_slot
        self.n_slots = len(tape._tensors)
        self.input_slots: Dict[str, int] = dict(tape._inputs)

        self.rec_for_slot: Dict[int, OpRecord] = {}
        self._rec_index: Dict[int, int] = {id(rec): i for i, rec in enumerate(self.records)}
        produced = set()
        for rec in self.records:
            self.rec_for_slot[rec.out_slot] = rec
            produced.add(rec.out_slot)

        # Leaf classification: marked inputs, parameters, constants.
        from repro.nn.module import Parameter  # local: nn imports autograd

        input_slot_set = set(self.input_slots.values())
        self.param_leaves: List[Tuple[int, Any]] = []
        self.const_leaves: List[Tuple[int, Any]] = []
        for slot, tensor in enumerate(tape._tensors):
            if slot in produced or slot in input_slot_set:
                continue
            if isinstance(tensor, Parameter):
                self.param_leaves.append((slot, tensor))
            else:
                self.const_leaves.append((slot, tensor))

        # Backward schedule: the same (node, processed) DFS as Tensor.backward,
        # walked over the live graph and frozen as a slot list.
        order: List[Any] = []
        visited = set()
        stack: List[Tuple[Any, bool]] = [(loss, False)]
        while stack:
            node, is_processed = stack.pop()
            if is_processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        slots = tape._slots
        try:
            self.order = [slots[id(node)] for node in order]
        except KeyError:
            raise PlanError(
                "loss graph reaches tensors created outside the traced step"
            ) from None

        self._interior = {
            s for s in self.order if s in self.rec_for_slot and self.rec_for_slot[s].out_requires
        }
        self._leaf_dtype = {slot: t.data.dtype for slot, t in self.param_leaves}
        # Any requires-grad leaf that is not a Parameter would accumulate into
        # a tensor the caller cannot see; refuse to compile rather than lose
        # gradients silently.
        for slot, tensor in self.const_leaves:
            if tensor.requires_grad:
                raise PlanError("traced step has a trainable non-parameter leaf")
        if self.input_slots:
            for name, slot in self.input_slots.items():
                if self.tape._tensors[slot].requires_grad:
                    raise PlanError(f"plan input {name!r} must not require grad")

        self._batched_flags: Optional[List[Tuple[Tuple[bool, ...], bool]]] = None
        self._batched_param_slots: Optional[frozenset] = None
        self._rng_objects: Optional[List[np.random.Generator]] = None

        # The replay engine: the optimized instruction stream (DCE / liveness
        # / arena / fusion) is the only interpreter of a compiled plan.
        from repro.autograd import planopt  # local: planopt imports tape

        self.opt = planopt.optimize_plan(self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def rng_objects(self) -> List[np.random.Generator]:
        """Every numpy Generator appearing in recorded kwargs (for rewinds)."""
        if self._rng_objects is None:
            found: List[np.random.Generator] = []
            seen = set()

            def visit(value: Any) -> None:
                if isinstance(value, DynRef):
                    value = self.tape._dynamic_values[value.name]
                if isinstance(value, tuple):
                    for item in value:
                        visit(item)
                    return
                if isinstance(value, np.random.Generator) and id(value) not in seen:
                    seen.add(id(value))
                    found.append(value)

            for rec in self.records:
                for value in rec.kwargs.values():
                    visit(value)
            self._rng_objects = found
        return self._rng_objects

    def grad_for(self, param: Any, leaf_grads: Dict[int, np.ndarray]) -> Optional[np.ndarray]:
        for slot, p in self.param_leaves:
            if p is param:
                return leaf_grads.get(slot)
        return None

    # ------------------------------------------------------------------ #
    # Tape-mode (per-client) replay
    # ------------------------------------------------------------------ #
    def execute(self, bindings: Dict[str, Any]) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Replay the step with ``bindings`` overriding inputs/dynamics.

        Unspecified names default to the traced objects (so buffers keep
        updating in place and rng streams continue).  Returns the loss value
        and per-leaf-slot gradients, accumulated exactly as eager would.

        Leaf gradients are served from per-plan accumulator buffers that are
        overwritten by the next ``execute`` call — consume (or copy) them
        before replaying again.
        """
        return self.opt.execute(bindings)

    def apply_grads(self, leaf_grads: Dict[int, np.ndarray]) -> None:
        """Fold replayed gradients into ``param.grad`` (mirrors _accumulate)."""
        for slot, param in self.param_leaves:
            grad = leaf_grads.get(slot)
            if grad is None:
                continue
            if param.grad is None:
                param.grad = grad
            else:
                param.grad = param.grad + grad

    # ------------------------------------------------------------------ #
    # Batched (lockstep) replay
    # ------------------------------------------------------------------ #
    def prepare_batched(self, batched_param_slots: Sequence[int]) -> None:
        """Analyze batchability given which parameter slots will be stacked.

        Propagates the batched flag from stacked params, marked inputs and
        dynamic bindings through every record, validating each touched op's
        batch rule.  Raises :class:`PlanNotBatchable` with the reason.
        """
        batched = set(batched_param_slots) | set(self.input_slots.values())
        stacked_params = frozenset(batched_param_slots)
        for slot, param in self.param_leaves:
            if param.requires_grad and slot not in stacked_params:
                raise PlanNotBatchable("trainable parameter outside the stacked set")
        if self.rng_objects:
            raise PlanNotBatchable("plan consumes rng streams (dropout active)")
        flags: List[Tuple[Tuple[bool, ...], bool]] = []
        for rec in self.records:
            in_batched = tuple(s in batched for s in rec.input_slots)
            dyn_batched = any(_contains_dynref(v) for v in rec.kwargs.values())
            out_batched = any(in_batched) or dyn_batched
            if out_batched:
                if rec.op.batch_rule is None and rec.op.batched_forward is None:
                    raise PlanNotBatchable(f"op {rec.op.name!r} is not batchable")
                if rec.op.batch_check is not None and not rec.op.batch_check(rec):
                    raise PlanNotBatchable(
                        f"op {rec.op.name!r} record shape/index form is not batchable"
                    )
                batched.add(rec.out_slot)
            flags.append((in_batched, out_batched))
        if self.loss_slot not in batched:
            raise PlanNotBatchable("loss does not depend on batched state")
        self._batched_flags = flags
        self._batched_param_slots = stacked_params

    def execute_batched(
        self,
        k: int,
        bindings: Dict[str, Any],
        param_stacks: Dict[int, np.ndarray],
    ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Replay the step for K clients at once.

        ``bindings`` must provide a stacked ``(K,) + shape`` array for every
        plan input and dynamic name; ``param_stacks`` maps the slots passed to
        :meth:`prepare_batched` to stacked parameter arrays (mutated in place
        by the caller's optimizer between steps).  Returns the per-client loss
        vector and stacked leaf gradients.

        Elementwise arithmetic is bit-for-bit with eager per client; matmul
        and reductions over stacked operands may differ at accumulation-order
        level (documented float tolerance of the batched path).
        """
        if self._batched_flags is None:
            raise PlanError("call prepare_batched() before execute_batched()")
        if set(param_stacks) != set(self._batched_param_slots):
            raise PlanError("param_stacks does not match the prepared slot set")
        return self.opt.execute_batched(k, bindings, param_stacks)


class PlanCache:
    """LRU-bounded keyed plan store with hit/miss/evict counters.

    Shape-churn workloads (per-client batch remainders, growing populations)
    previously grew the per-call cache without limit; the LRU bound keeps the
    steady-state footprint flat while the counters surface cache behaviour
    through :class:`~repro.federated.lockstep.LockstepTelemetry`.
    """

    def __init__(self, max_plans: int = 32) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self._plans: "OrderedDict[Any, Any]" = OrderedDict()
        self.max_plans = max_plans
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Optional[Any]:
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
        else:
            self.hits += 1
            self._plans.move_to_end(key)
        return plan

    def put(self, key: Any, plan: Any) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._plans)


# Memoized fingerprints keyed by model identity.  The probe captures what the
# full fingerprint depends on — parameter objects, their storage identity and
# trainability — via the registration dicts (no name-string building), so a
# swapped head, ``freeze()``/``unfreeze()`` or a ``Parameter.data`` rebind all
# miss the memo and rebuild.  In-place ``data[...]`` updates (the SGD step)
# keep ``id(p.data)`` stable, which is exactly the hot-path case the memo
# serves.  A weakref finalizer evicts entries when the model is collected, so
# ``id(model)`` reuse cannot alias a dead entry.
_FINGERPRINTS: Dict[int, Tuple[Any, Tuple, Tuple]] = {}


def _fingerprint_probe(model: Any) -> Tuple:
    rows = []
    stack = [model]
    while stack:
        module = stack.pop()
        for p in module._parameters.values():
            rows.append((id(p), id(p.data), p.requires_grad))
        stack.extend(module._modules.values())
    return tuple(rows)


def model_fingerprint(model: Any) -> Tuple:
    """Structural identity of a model: (name, shape, dtype, trainable) rows."""
    try:
        probe = _fingerprint_probe(model)
    except AttributeError:
        # Not a Module-shaped object; fall back to the direct build.
        return tuple(
            (name, tuple(p.data.shape), str(p.data.dtype), bool(p.requires_grad))
            for name, p in model.named_parameters()
        )
    key = id(model)
    cached = _FINGERPRINTS.get(key)
    if cached is not None and cached[1] == probe:
        return cached[2]
    fingerprint = tuple(
        (name, tuple(p.data.shape), str(p.data.dtype), bool(p.requires_grad))
        for name, p in model.named_parameters()
    )
    ref = weakref.ref(model, lambda _ref, _key=key: _FINGERPRINTS.pop(_key, None))
    _FINGERPRINTS[key] = (ref, probe, fingerprint)
    return fingerprint


def plan_key(model: Any, images: np.ndarray, labels: np.ndarray) -> Tuple:
    """Cache key for one traced step: model fingerprint + batch shape/dtype."""
    return (
        model_fingerprint(model),
        tuple(images.shape),
        str(images.dtype),
        tuple(labels.shape),
        str(labels.dtype),
    )


# --------------------------------------------------------------------------- #
# Batch-kwarg remappers shared by the tensor-op table
# --------------------------------------------------------------------------- #
def _remap_reduce_axis(axis: Any, in_ndim: int) -> Any:
    """Shift reduction axes one position right for the leading client axis."""
    if axis is None:
        return tuple(range(1, 1 + in_ndim))
    if isinstance(axis, tuple):
        return tuple(a + 1 if a >= 0 else a for a in axis)
    return axis + 1 if axis >= 0 else axis


def _batch_kwargs_reduce(kwargs: Dict[str, Any], info: BatchInfo) -> Dict[str, Any]:
    out = dict(kwargs)
    out["axis"] = _remap_reduce_axis(kwargs["axis"], len(info.in_shapes[0]))
    return out


def _batch_kwargs_reshape(kwargs: Dict[str, Any], info: BatchInfo) -> Dict[str, Any]:
    return {"shape": (info.k,) + tuple(kwargs["shape"])}


def _batch_kwargs_transpose(kwargs: Dict[str, Any], info: BatchInfo) -> Dict[str, Any]:
    ndim = len(info.in_shapes[0])
    return {"axes": (0,) + tuple(a % ndim + 1 for a in kwargs["axes"])}


def _batch_kwargs_broadcast(kwargs: Dict[str, Any], info: BatchInfo) -> Dict[str, Any]:
    return {"shape": (info.k,) + tuple(kwargs["shape"])}


def _batch_kwargs_expand_dims(kwargs: Dict[str, Any], info: BatchInfo) -> Dict[str, Any]:
    axis = kwargs["axis"]
    return {"axis": axis + 1 if axis >= 0 else axis}


def _batch_kwargs_squeeze(kwargs: Dict[str, Any], info: BatchInfo) -> Dict[str, Any]:
    axis = kwargs["axis"]
    if axis is None:
        # K >= 2 in lockstep, so squeezing all singleton axes never drops the
        # client axis.
        return {"axis": None}
    return {"axis": axis + 1 if axis >= 0 else axis}


def _batch_kwargs_join(kwargs: Dict[str, Any], info: BatchInfo) -> Dict[str, Any]:
    axis = kwargs["axis"]
    return {"axis": axis + 1 if axis >= 0 else axis}


def _batch_kwargs_pad(kwargs: Dict[str, Any], info: BatchInfo) -> Dict[str, Any]:
    out = dict(kwargs)
    out["pad_width"] = ((0, 0),) + tuple(tuple(p) for p in kwargs["pad_width"])
    return out


# --------------------------------------------------------------------------- #
# The tensor-op table.  Every forward/vjp body reproduces the numpy
# expressions of the former inline closures verbatim — eager parity is by
# construction, not by test alone.
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


def _pow_forward(ctx, a, *, exponent):
    ctx.a = a
    ctx.exponent = exponent
    return a ** exponent


def _pow_vjp(ctx, grad, needs):
    return (grad * ctx.exponent * ctx.a ** (ctx.exponent - 1),)


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


def _matmul_batch_check(rec: OpRecord) -> bool:
    # The 1-D special cases cannot take a leading client axis.
    return all(len(shape) >= 2 for shape in rec.in_shapes)


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


def _sigmoid_forward(ctx, a):
    out = 1.0 / (1.0 + np.exp(-a))
    ctx.out = out
    return out


def _sigmoid_vjp(ctx, grad, needs):
    return (grad * ctx.out * (1.0 - ctx.out),)


def _relu_forward(ctx, a):
    mask = a > 0
    ctx.mask = mask
    return a * mask


def _relu_vjp(ctx, grad, needs):
    return (grad * ctx.mask,)


def _abs_forward(ctx, a):
    ctx.sign = np.sign(a)
    return np.abs(a)


def _abs_vjp(ctx, grad, needs):
    return (grad * ctx.sign,)


def _clip_forward(ctx, a, *, minimum, maximum):
    ctx.mask = (a >= minimum) & (a <= maximum)
    return np.clip(a, minimum, maximum)


def _clip_vjp(ctx, grad, needs):
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


def _expand_dims_forward(ctx, a, *, axis):
    ctx.axis = axis
    return np.expand_dims(a, axis)


def _expand_dims_vjp(ctx, grad, needs):
    return (np.squeeze(grad, ctx.axis),)


def _squeeze_forward(ctx, a, *, axis):
    ctx.in_shape = a.shape
    return np.squeeze(a, axis) if axis is not None else np.squeeze(a)


def _squeeze_vjp(ctx, grad, needs):
    return (grad.reshape(ctx.in_shape),)


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


def _getitem_batch_check(rec: OpRecord) -> bool:
    index = rec.kwargs["index"]
    elements = index if isinstance(index, tuple) else (index,)
    has_advanced = any(isinstance(e, (np.ndarray, DynRef)) for e in elements)
    if not has_advanced:
        return True  # basic indexing: prepend slice(None)
    # Pure integer-array advanced indexing only; slices mixed with arrays (or
    # boolean masks) would need per-case placement logic.
    for element in elements:
        if isinstance(element, DynRef):
            continue  # dynamic label arrays are int64 by the tape path's contract
        if isinstance(element, np.ndarray) and element.dtype.kind in "iu":
            continue
        return False
    return True


def _getitem_batched_forward(ctx, info, a, *, index):
    elements = index if isinstance(index, tuple) else (index,)
    if not any(isinstance(e, np.ndarray) for e in elements):
        batched_index = (slice(None),) + tuple(elements)
    else:
        flags = info.dyn_kwargs.get("index", False)
        if not isinstance(flags, tuple):
            flags = (flags,)
        traced_ndim = len(info.in_shapes[0])
        rest = traced_ndim - len(elements)
        core_ndim = len(info.out_shape) - rest
        lead = np.arange(info.k).reshape((info.k,) + (1,) * core_ndim)
        parts = []
        for element, is_dyn in zip(elements, flags):
            part = np.asarray(element)
            if is_dyn:
                # Stacked (K,) + orig: insert singleton axes so the client
                # axis broadcasts against the static index arrays.
                pad = core_ndim - (part.ndim - 1)
                part = part.reshape(part.shape[:1] + (1,) * pad + part.shape[1:])
            parts.append(part)
        batched_index = (lead,) + tuple(parts)
    ctx.a_shape = a.shape
    ctx.a_dtype = a.dtype
    ctx.batched_index = batched_index
    return a[batched_index]


def _getitem_batched_vjp(ctx, grad, needs):
    full = np.zeros(ctx.a_shape, dtype=ctx.a_dtype)
    np.add.at(full, ctx.batched_index, grad)
    return (full,)


def _pad_forward(ctx, a, *, pad_width, constant):
    ctx.slices = tuple(
        slice(before, before + size) for (before, _), size in zip(pad_width, a.shape)
    )
    return np.pad(a, pad_width, mode="constant", constant_values=constant)


def _pad_vjp(ctx, grad, needs):
    return (grad[ctx.slices],)


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


def _stack_forward(ctx, *arrays, axis):
    ctx.axis = axis
    ctx.count = len(arrays)
    return np.stack(arrays, axis=axis)


def _stack_vjp(ctx, grad, needs):
    split = np.split(grad, ctx.count, axis=ctx.axis)
    return tuple(
        np.squeeze(piece, axis=ctx.axis) if needs[i] else None
        for i, piece in enumerate(split)
    )


def _detach_forward(ctx, a):
    return a


ADD = Op("add", _add_forward, _add_vjp)
SUB = Op("sub", _sub_forward, _sub_vjp)
MUL = Op("mul", _mul_forward, _mul_vjp)
DIV = Op("div", _div_forward, _div_vjp)
NEG = Op("neg", _neg_forward, _neg_vjp)
POW = Op("pow", _pow_forward, _pow_vjp)
MATMUL = Op("matmul", _matmul_forward, _matmul_vjp, batch_check=_matmul_batch_check)
EXP = Op("exp", _exp_forward, _exp_vjp)
LOG = Op("log", _log_forward, _log_vjp)
SQRT = Op("sqrt", _sqrt_forward, _sqrt_vjp)
TANH = Op("tanh", _tanh_forward, _tanh_vjp)
SIGMOID = Op("sigmoid", _sigmoid_forward, _sigmoid_vjp)
RELU = Op("relu", _relu_forward, _relu_vjp)
ABS = Op("abs", _abs_forward, _abs_vjp)
CLIP = Op("clip", _clip_forward, _clip_vjp)
SUM = Op("sum", _sum_forward, _sum_vjp, batch_rule="axis", batch_kwargs=_batch_kwargs_reduce)
MAX = Op("max", _max_forward, _max_vjp, batch_rule="axis", batch_kwargs=_batch_kwargs_reduce)
RESHAPE = Op(
    "reshape", _reshape_forward, _reshape_vjp, batch_rule="axis", batch_kwargs=_batch_kwargs_reshape
)
TRANSPOSE = Op(
    "transpose",
    _transpose_forward,
    _transpose_vjp,
    batch_rule="axis",
    batch_kwargs=_batch_kwargs_transpose,
)
EXPAND_DIMS = Op(
    "expand_dims",
    _expand_dims_forward,
    _expand_dims_vjp,
    batch_rule="axis",
    batch_kwargs=_batch_kwargs_expand_dims,
)
SQUEEZE = Op(
    "squeeze", _squeeze_forward, _squeeze_vjp, batch_rule="axis", batch_kwargs=_batch_kwargs_squeeze
)
BROADCAST_TO = Op(
    "broadcast_to",
    _broadcast_to_forward,
    _broadcast_to_vjp,
    batch_rule="pad",
    batch_kwargs=_batch_kwargs_broadcast,
)
GETITEM = Op(
    "getitem",
    _getitem_forward,
    _getitem_vjp,
    batch_rule="custom",
    batched_forward=_getitem_batched_forward,
    batched_vjp=_getitem_batched_vjp,
    batch_check=_getitem_batch_check,
)
PAD = Op("pad", _pad_forward, _pad_vjp, batch_rule="axis", batch_kwargs=_batch_kwargs_pad)
CONCATENATE = Op(
    "concatenate",
    _concatenate_forward,
    _concatenate_vjp,
    batch_rule="axis",
    batch_kwargs=_batch_kwargs_join,
)
STACK = Op(
    "stack", _stack_forward, _stack_vjp, batch_rule="axis", batch_kwargs=_batch_kwargs_join
)
DETACH = Op("detach", _detach_forward, None, batch_rule="axis", differentiable=False)


__all__ = [
    "Op",
    "OpContext",
    "OpRecord",
    "BatchInfo",
    "DynRef",
    "Tape",
    "Plan",
    "PlanCache",
    "PlanError",
    "PlanNotBatchable",
    "tracing",
    "active_tape",
    "unbroadcast",
    "get_kernel",
    "set_kernel",
    "kernel_mode",
    "KERNELS",
    "model_fingerprint",
    "plan_key",
]
