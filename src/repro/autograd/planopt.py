"""The plan replay engine: compile-time passes plus the one interpreter.

Every compiled :class:`~repro.autograd.tape.Plan` replays through the
:class:`PlanOptimization` built here — :meth:`Plan.execute` and
:meth:`Plan.execute_batched` only delegate — so besides eager
(``apply_op`` + :meth:`Tensor.backward`, the reference every parity check
compares against) this package has exactly one unbatched forward loop, one
batched forward loop and one backward sweep over plan records.  A
record-at-a-time replay would be allocation-bound: a fresh output array per
record, every intermediate alive until the backward sweep finishes, each
parameter's gradient accumulator re-allocated per step.  The passes remove
that overhead without moving a single bit relative to eager:

* **dead-code elimination** — records whose outputs reach neither the loss
  slot nor any record with an effect (metrics-only subgraphs) are dropped from
  the forward program.  Every slot in the backward schedule is a dataflow
  ancestor of the loss, so dropped records are never visited by the backward
  sweep and the gradient stream is untouched.
* **slot liveness** — the last forward read of every produced slot is
  computed; ``env[slot]`` is dropped eagerly at that position, and op contexts
  are only stashed for records the backward sweep will actually visit
  (``out_requires`` and reachable from the loss), then dropped as soon as
  their vjp has consumed them.  Activations die at their true last use instead
  of at the end of the step.
* **buffer arena** — forward outputs of single-ufunc elementwise ops are
  written with ``out=`` into per-plan buffers keyed by ``(shape, dtype)``, and
  leaf gradient accumulators reuse preallocated per-slot buffers, so
  steady-state replay performs zero fresh large allocations for those values.
  A ufunc with ``out=`` stores exactly the bits the allocating form produces
  (eligibility requires the natural result dtype to equal the traced output
  dtype, so no store-time cast is introduced).  A buffer is shared between two
  records only when liveness proves the earlier value dead before the later
  write *and* no op context retains it — ops that stash inputs or outputs for
  their vjp (``mul``, ``exp``, views, every unknown op) pin their operands'
  buffers conservatively.
* **elementwise fusion** — maximal runs of adjacent single-consumer
  elementwise records collapse into one fused instruction that executes the
  same numpy ops in the same order (bit-for-bit by construction) while the
  chain value stays in a local instead of round-tripping through ``env``.
  The fused vjp is the unchanged backward schedule: each member record keeps
  its own context and its vjp runs in exactly the original visit order, so
  gradients are bit-identical by the same argument as the forward.

The batched (lockstep) program reuses the DCE / liveness / fusion passes and
the precompiled backward schedule; it skips the ``out=`` arena because stacked
shapes depend on the cohort size.  Elementwise arithmetic stays bit-for-bit
with eager per client; matmul and reductions over stacked operands may differ
at accumulation-order level (the documented tolerance of the batched path).

``optimize_plan`` raises :class:`~repro.autograd.tape.PlanError` when a plan
violates a precondition the passes rely on; callers already run a shape whose
plan fails to compile eagerly, so the fallback chain is plan → eager.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tape import (
    ABS,
    ADD,
    BROADCAST_TO,
    CLIP,
    CONCATENATE,
    DETACH,
    DIV,
    EXP,
    EXPAND_DIMS,
    GETITEM,
    LOG,
    MATMUL,
    MAX,
    MUL,
    NEG,
    PAD,
    POW,
    RELU,
    RESHAPE,
    SIGMOID,
    SQRT,
    SQUEEZE,
    STACK,
    SUB,
    SUM,
    TANH,
    TRANSPOSE,
    BatchInfo,
    OpContext,
    OpRecord,
    PlanError,
    _contains_dynref,
    _dyn_flags,
    _resolve_kwargs,
)


# --------------------------------------------------------------------------- #
# Per-op facts the passes rely on.  Ops are matched by *identity* against the
# tape module's singletons, so a foreign op that happens to share a name is
# treated as unknown (maximally conservative: retains everything, never
# arena-served, never fused).
# --------------------------------------------------------------------------- #
class _OpSpec:
    __slots__ = ("fusable", "out_capable", "retains_args", "retains_out")

    def __init__(
        self,
        fusable: bool = False,
        out_capable: bool = False,
        retains_args: bool = True,
        retains_out: bool = True,
    ) -> None:
        self.fusable = fusable
        self.out_capable = out_capable
        self.retains_args = retains_args
        self.retains_out = retains_out


_SPECS: Dict[int, _OpSpec] = {
    # Elementwise ops: fusable; most are single-ufunc and can write into an
    # arena buffer.  ``retains_args`` / ``retains_out`` mirror what each op's
    # forward stashes on its ctx (shape-only stashes retain nothing).
    id(ADD): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=False),
    id(SUB): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=False),
    id(MUL): _OpSpec(fusable=True, out_capable=True, retains_args=True, retains_out=False),
    id(DIV): _OpSpec(fusable=True, out_capable=True, retains_args=True, retains_out=False),
    id(NEG): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=False),
    # pow's eager forward is ``a ** exponent``, whose small-integer-exponent
    # fast path (numpy's scalar-power dispatch to square/sqrt) is not
    # guaranteed bit-identical to ``np.power(a, e, out=...)`` — fusable, but
    # never served from the arena.
    id(POW): _OpSpec(fusable=True, out_capable=False, retains_args=True, retains_out=False),
    id(EXP): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=True),
    id(LOG): _OpSpec(fusable=True, out_capable=True, retains_args=True, retains_out=False),
    id(SQRT): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=True),
    id(TANH): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=True),
    id(SIGMOID): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=True),
    id(RELU): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=False),
    id(ABS): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=False),
    id(CLIP): _OpSpec(fusable=True, out_capable=True, retains_args=False, retains_out=False),
    # Non-elementwise ops whose forwards stash only shapes/axes.
    id(SUM): _OpSpec(retains_args=False, retains_out=False),
    id(BROADCAST_TO): _OpSpec(retains_args=False, retains_out=False),
    id(PAD): _OpSpec(retains_args=False, retains_out=False),
    id(CONCATENATE): _OpSpec(retains_args=False, retains_out=False),
    id(STACK): _OpSpec(retains_args=False, retains_out=False),
    # Value-retaining ops (ctx stashes an input array for the vjp).
    id(MATMUL): _OpSpec(retains_args=True, retains_out=False),
    id(MAX): _OpSpec(retains_args=True, retains_out=False),
    # View-producing ops: the output aliases the input's storage, so the
    # input's buffer must stay pinned — modelled as retaining their args.
    id(RESHAPE): _OpSpec(retains_args=True, retains_out=False),
    id(TRANSPOSE): _OpSpec(retains_args=True, retains_out=False),
    id(EXPAND_DIMS): _OpSpec(retains_args=True, retains_out=False),
    id(SQUEEZE): _OpSpec(retains_args=True, retains_out=False),
    id(GETITEM): _OpSpec(retains_args=True, retains_out=False),
    id(DETACH): _OpSpec(retains_args=True, retains_out=False),
}


# --------------------------------------------------------------------------- #
# ``out=`` writers.  Each reproduces its op's eager forward with the final
# store routed into an arena buffer; every ufunc call is the same ufunc on the
# same operand values, so the stored bits match the allocating form exactly.
# --------------------------------------------------------------------------- #
def _w_add(ctx, out, a, b):
    ctx.a_shape = a.shape
    ctx.b_shape = b.shape
    return np.add(a, b, out=out)


def _w_sub(ctx, out, a, b):
    ctx.a_shape = a.shape
    ctx.b_shape = b.shape
    return np.subtract(a, b, out=out)


def _w_mul(ctx, out, a, b):
    ctx.a = a
    ctx.b = b
    return np.multiply(a, b, out=out)


def _w_div(ctx, out, a, b):
    ctx.a = a
    ctx.b = b
    return np.divide(a, b, out=out)


def _w_neg(ctx, out, a):
    return np.negative(a, out=out)


def _w_exp(ctx, out, a):
    ctx.out = np.exp(a, out=out)
    return ctx.out


def _w_log(ctx, out, a):
    ctx.a = a
    return np.log(a, out=out)


def _w_sqrt(ctx, out, a):
    ctx.out = np.sqrt(a, out=out)
    return ctx.out


def _w_tanh(ctx, out, a):
    ctx.out = np.tanh(a, out=out)
    return ctx.out


def _w_sigmoid(ctx, out, a):
    # 1.0 / (1.0 + np.exp(-a)), each stage in place: same ufuncs on the same
    # values as the eager composite, so every intermediate matches bitwise.
    np.negative(a, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    ctx.out = out
    return out


_PLAIN_WRITERS: Dict[int, Callable] = {
    id(ADD): _w_add,
    id(SUB): _w_sub,
    id(MUL): _w_mul,
    id(DIV): _w_div,
    id(NEG): _w_neg,
    id(EXP): _w_exp,
    id(LOG): _w_log,
    id(SQRT): _w_sqrt,
    id(TANH): _w_tanh,
    id(SIGMOID): _w_sigmoid,
}


def _make_scratch_writer(rec: OpRecord) -> Optional[Callable]:
    """Writers for ops whose ctx stash is itself an array (mask / sign).

    The stash buffers are dedicated to the record and reused across steps:
    the backward sweep of step N consumes them before step N+1's forward
    overwrites them.
    """
    op = rec.op
    in_shape = rec.in_shapes[0]
    if op is RELU:
        mask = np.empty(in_shape, dtype=bool)

        def write_relu(ctx, out, a):
            np.greater(a, 0, out=mask)
            ctx.mask = mask
            return np.multiply(a, mask, out=out)

        return write_relu
    if op is ABS:
        sign = np.empty(in_shape, dtype=rec.out_dtype)

        def write_abs(ctx, out, a):
            np.sign(a, out=sign)
            ctx.sign = sign
            return np.absolute(a, out=out)

        return write_abs
    if op is CLIP:
        ge = np.empty(in_shape, dtype=bool)
        le = np.empty(in_shape, dtype=bool)

        def write_clip(ctx, out, a, *, minimum, maximum):
            np.greater_equal(a, minimum, out=ge)
            np.less_equal(a, maximum, out=le)
            np.bitwise_and(ge, le, out=ge)
            ctx.mask = ge
            return np.clip(a, minimum, maximum, out=out)

        return write_clip
    return None


def _layout_mirrors(buf: np.ndarray, grad: np.ndarray) -> bool:
    """True when ``buf`` already has the memory layout that
    ``grad.astype(dtype, copy=True)`` (``order='K'``) would produce.

    Layout is part of bit-for-bit parity: reductions downstream of the
    returned gradients (the optimizer's global clip norm, most visibly) sum
    in *memory* order, so handing back a C-ordered buffer where eager's
    ``_accumulate`` hands back an F-ordered ``astype`` copy shifts the
    pairwise summation tree by an ulp.  A Linear layer's weight gradient
    (``x @ w.T``: the transpose vjp returns an F-ordered view) is exactly
    that case.  A non-contiguous source always reallocates, mirroring the
    fresh ``astype`` copy eager makes.
    """
    if grad.flags.c_contiguous:
        return buf.flags.c_contiguous
    if grad.flags.f_contiguous:
        return buf.flags.f_contiguous
    return False


def _inplace_add_matches(existing: np.ndarray, grad: np.ndarray) -> bool:
    """True when ``np.add(existing, grad, out=existing)`` lands in the same
    layout ``existing + grad`` would allocate (both-C or both-F: the ufunc's
    ``order='K'`` output matches ``existing``; mixed layouts allocate C)."""
    if existing.flags.c_contiguous and grad.flags.c_contiguous:
        return True
    return existing.flags.f_contiguous and grad.flags.f_contiguous


def _out_eligible(plan, rec: OpRecord, spec: Optional[_OpSpec]) -> bool:
    """May ``rec``'s output be served from an arena buffer via ``out=``?"""
    if spec is None or not spec.out_capable:
        return False
    if rec.out_slot == plan.loss_slot:
        return False
    if any(_contains_dynref(v) for v in rec.kwargs.values()):
        return False
    if rec.op is CLIP and (
        rec.kwargs.get("minimum") is None or rec.kwargs.get("maximum") is None
    ):
        return False
    in_dtypes = [plan.tape._tensors[s].data.dtype for s in rec.input_slots]
    try:
        natural = np.result_type(*in_dtypes)
    except TypeError:
        return False
    # No store-time cast: ``out=`` must receive exactly the natural result
    # dtype, otherwise the allocating form and the out= form could round
    # differently.
    return natural == rec.out_dtype


# --------------------------------------------------------------------------- #
# Compiled instructions
# --------------------------------------------------------------------------- #
_CHAIN = -1  # argspec marker: read the fused chain's running value


class _Sub:
    """One member of a fused chain (also used for standalone records)."""

    __slots__ = (
        "index",
        "rec",
        "forward",
        "argspec",
        "rec_kwargs",
        "static_kwargs",
        "keep_ctx",
        "writer",
        "out_buf",
        "out_dtype",
    )

    def __init__(self, index: int, rec: OpRecord, argspec: Tuple[int, ...], keep_ctx: bool) -> None:
        self.index = index
        self.rec = rec
        self.forward = rec.op.forward
        self.argspec = argspec
        self.rec_kwargs = rec.kwargs
        self.static_kwargs = (
            rec.kwargs
            if not any(_contains_dynref(v) for v in rec.kwargs.values())
            else None
        )
        self.keep_ctx = keep_ctx
        self.writer = None
        self.out_buf = None
        self.out_dtype = rec.out_dtype


class _Instr:
    """One optimized forward step: a plain record or a fused chain."""

    __slots__ = ("subs", "out_slot", "releases", "dyn_kwargs")

    def __init__(self, subs: Tuple[_Sub, ...], out_slot: int) -> None:
        self.subs = subs
        self.out_slot = out_slot
        self.releases: Tuple[int, ...] = ()
        # Per-sub precomputed BatchInfo.dyn_kwargs (static per record).
        self.dyn_kwargs = tuple(
            {key: _dyn_flags(v) for key, v in sub.rec.kwargs.items()} for sub in subs
        )


class _BwdEntry:
    """One visit of the precompiled backward schedule."""

    __slots__ = ("slot", "rec", "vjp", "needs", "ctx_index", "input_slots", "interior", "parent_slots")

    def __init__(self, slot: int, rec: Optional[OpRecord], ctx_index: int, interior: frozenset) -> None:
        self.slot = slot
        self.rec = rec
        if rec is None:
            self.vjp = None
            self.needs = ()
            self.input_slots = ()
            self.interior = ()
            self.parent_slots = ()
        else:
            self.vjp = rec.op.vjp
            self.needs = rec.needs
            self.input_slots = rec.input_slots
            self.interior = tuple(s in interior for s in rec.input_slots)
            self.parent_slots = rec.parent_slots
        self.ctx_index = ctx_index


# --------------------------------------------------------------------------- #
# The optimizer
# --------------------------------------------------------------------------- #
class PlanOptimization:
    """Optimized replay programs for one plan (built by :func:`optimize_plan`)."""

    def __init__(
        self,
        plan,
        program: List[_Instr],
        dropped: Tuple[int, ...],
        chains: Tuple[Tuple[int, ...], ...],
        last_read: Dict[int, int],
        buffer_for: Dict[int, np.ndarray],
        arena_buffers: int,
    ) -> None:
        self.plan = plan
        self.program = program
        self.dropped = dropped
        self.chains = chains
        self.last_read = last_read
        self.buffer_for = buffer_for  # produced slot -> arena buffer (tests)
        self.arena_buffers = arena_buffers
        self._env: List[Any] = [None] * plan.n_slots
        self._ctxs: List[Optional[OpContext]] = [None] * len(plan.records)
        self._grads: List[Optional[np.ndarray]] = [None] * plan.n_slots
        self._grad_bufs: Dict[int, np.ndarray] = {}
        self._bwd_program: List[_BwdEntry] = []
        rec_index = plan._rec_index
        for slot in reversed(plan.order):
            rec = plan.rec_for_slot.get(slot)
            if rec is None or not rec.out_requires:
                self._bwd_program.append(_BwdEntry(slot, None, -1, plan._interior))
            else:
                self._bwd_program.append(
                    _BwdEntry(slot, rec, rec_index[id(rec)], plan._interior)
                )

    # ------------------------------------------------------------------ #
    # Unbatched replay
    # ------------------------------------------------------------------ #
    def execute(self, bindings: Dict[str, Any]) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        plan = self.plan
        env = self._env
        for slot, param in plan.param_leaves:
            env[slot] = param.data
        for slot, tensor in plan.const_leaves:
            env[slot] = tensor.data
        for name, slot in plan.input_slots.items():
            value = bindings.get(name)
            env[slot] = value if value is not None else plan.tape._tensors[slot].data
        dyn = {
            name: bindings.get(name, traced)
            for name, traced in plan.tape._dynamic_values.items()
        }
        ctxs = self._ctxs
        for ins in self.program:
            subs = ins.subs
            if len(subs) == 1:
                sub = subs[0]
                kwargs = sub.static_kwargs
                if kwargs is None:
                    kwargs = _resolve_kwargs(sub.rec_kwargs, dyn)
                ctx = OpContext()
                args = [env[s] for s in sub.argspec]
                if sub.writer is not None:
                    env[ins.out_slot] = sub.writer(ctx, sub.out_buf, *args, **kwargs)
                    if sub.keep_ctx:
                        ctxs[sub.index] = ctx
                else:
                    value = sub.forward(ctx, *args, **kwargs)
                    env[ins.out_slot] = np.asarray(value, dtype=sub.out_dtype)
                    if sub.keep_ctx:
                        ctxs[sub.index] = ctx
            else:
                value: Any = None
                for sub in subs:
                    kwargs = sub.static_kwargs
                    if kwargs is None:
                        kwargs = _resolve_kwargs(sub.rec_kwargs, dyn)
                    ctx = OpContext()
                    args = [value if s == _CHAIN else env[s] for s in sub.argspec]
                    if sub.writer is not None:
                        value = sub.writer(ctx, sub.out_buf, *args, **kwargs)
                    else:
                        value = np.asarray(
                            sub.forward(ctx, *args, **kwargs), dtype=sub.out_dtype
                        )
                    if sub.keep_ctx:
                        ctxs[sub.index] = ctx
                env[ins.out_slot] = value
            for s in ins.releases:
                env[s] = None
        loss_value = env[plan.loss_slot]
        env[plan.loss_slot] = None
        leaf_grads = self._backward(loss_value, ctxs, batched=False, k=0)
        return loss_value, leaf_grads

    # ------------------------------------------------------------------ #
    # Batched (lockstep) replay
    # ------------------------------------------------------------------ #
    def execute_batched(
        self,
        k: int,
        bindings: Dict[str, Any],
        param_stacks: Dict[int, np.ndarray],
    ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        plan = self.plan
        env = self._env
        stacked = plan._batched_param_slots
        for slot, param in plan.param_leaves:
            env[slot] = param_stacks[slot] if slot in stacked else param.data
        for slot, tensor in plan.const_leaves:
            env[slot] = tensor.data
        for name, slot in plan.input_slots.items():
            env[slot] = bindings[name]
        dyn = {name: bindings[name] for name in plan.tape._dynamic_values}
        ctxs = self._ctxs
        flags = plan._batched_flags
        for ins in self.program:
            subs = ins.subs
            if len(subs) == 1:
                sub = subs[0]
                args = [env[s] for s in sub.argspec]
                env[ins.out_slot] = self._batched_value(
                    sub, ins.dyn_kwargs[0], args, dyn, ctxs, k, flags
                )
            else:
                value = None
                for sub, dyn_kwargs in zip(subs, ins.dyn_kwargs):
                    args = [value if s == _CHAIN else env[s] for s in sub.argspec]
                    value = self._batched_value(sub, dyn_kwargs, args, dyn, ctxs, k, flags)
                env[ins.out_slot] = value
            for s in ins.releases:
                env[s] = None
        loss_value = env[plan.loss_slot]
        env[plan.loss_slot] = None
        leaf_grads = self._backward(loss_value, ctxs, batched=True, k=k)
        return loss_value, leaf_grads

    def _batched_value(
        self,
        sub: _Sub,
        dyn_kwargs: Dict[str, Any],
        args: List[Any],
        dyn: Dict[str, Any],
        ctxs: List[Optional[OpContext]],
        k: int,
        flags: List[Tuple[Tuple[bool, ...], bool]],
    ) -> Any:
        """One record's batched forward, dispatched on the op's batch rule."""
        rec = sub.rec
        in_batched, out_batched = flags[sub.index]
        kwargs = sub.static_kwargs
        if kwargs is None:
            kwargs = _resolve_kwargs(sub.rec_kwargs, dyn)
        ctx = OpContext()
        if not out_batched:
            result = rec.op.forward(ctx, *args, **kwargs)
            if sub.keep_ctx:
                ctxs[sub.index] = ctx
            return np.asarray(result, dtype=rec.out_dtype)
        info = BatchInfo(
            k=k,
            in_shapes=rec.in_shapes,
            out_shape=rec.out_shape,
            in_batched=in_batched,
            dyn_kwargs=dyn_kwargs,
        )
        if rec.op.batched_forward is not None:
            batched_args = [
                a if b else np.broadcast_to(a, (k,) + a.shape)
                for a, b in zip(args, in_batched)
            ]
            result = rec.op.batched_forward(ctx, info, *batched_args, **kwargs)
        elif rec.op.batch_rule == "axis":
            if rec.op.batch_kwargs is not None:
                kwargs = rec.op.batch_kwargs(kwargs, info)
            batched_args = [
                a if b else np.broadcast_to(a, (k,) + a.shape)
                for a, b in zip(args, in_batched)
            ]
            result = rec.op.forward(ctx, *batched_args, **kwargs)
        else:  # "pad"
            if rec.op.batch_kwargs is not None:
                kwargs = rec.op.batch_kwargs(kwargs, info)
            target = 1 + len(rec.out_shape)
            padded_args = []
            for a, b in zip(args, in_batched):
                if b and a.ndim < target:
                    need = target - a.ndim
                    a = a.reshape(a.shape[:1] + (1,) * need + a.shape[1:])
                padded_args.append(a)
            result = rec.op.forward(ctx, *padded_args, **kwargs)
        if sub.keep_ctx:
            ctxs[sub.index] = ctx
        return np.asarray(result, dtype=rec.out_dtype)

    # ------------------------------------------------------------------ #
    # Shared backward program
    # ------------------------------------------------------------------ #
    def _backward(
        self,
        loss_value: np.ndarray,
        ctxs: List[Optional[OpContext]],
        batched: bool,
        k: int,
    ) -> Dict[int, np.ndarray]:
        plan = self.plan
        if batched:
            seed = np.ones(loss_value.shape, dtype=loss_value.dtype)
        else:
            seed = np.ones_like(loss_value)
        grads = self._grads
        grads[plan.loss_slot] = seed
        leaf_grads: Dict[int, np.ndarray] = {}
        leaf_dtype = plan._leaf_dtype
        grad_bufs = self._grad_bufs

        def accumulate(slot: int, grad: np.ndarray) -> None:
            existing = leaf_grads.get(slot)
            if existing is None:
                dtype = leaf_dtype.get(slot)
                if dtype is None:
                    leaf_grads[slot] = grad
                    return
                buf = grad_bufs.get(slot)
                if (
                    buf is None
                    or buf.shape != grad.shape
                    or not _layout_mirrors(buf, grad)
                ):
                    # order='K' like astype: layout is part of parity.
                    buf = np.empty_like(grad, dtype=dtype)
                    grad_bufs[slot] = buf
                # == grad.astype(dtype, copy=True): same cast, into a buffer.
                np.copyto(buf, grad, casting="unsafe")
                leaf_grads[slot] = buf
            elif (
                existing.dtype == grad.dtype
                and existing is grad_bufs.get(slot)
                and _inplace_add_matches(existing, grad)
            ):
                # == existing + grad, accumulated in place in the buffer.
                np.add(existing, grad, out=existing)
            else:
                leaf_grads[slot] = existing + grad

        for entry in self._bwd_program:
            slot = entry.slot
            node_grad = grads[slot]
            if node_grad is None:
                continue
            grads[slot] = None
            rec = entry.rec
            if rec is None:
                accumulate(slot, node_grad)
                continue
            ctx = ctxs[entry.ctx_index]
            if batched:
                input_grads = _batched_vjp(rec, ctx, node_grad, k)
            else:
                input_grads = entry.vjp(ctx, node_grad, entry.needs)
            ctxs[entry.ctx_index] = None  # liveness: the vjp has consumed it
            pending: Dict[int, np.ndarray] = {}
            for in_slot, grad, is_interior in zip(
                entry.input_slots, input_grads, entry.interior
            ):
                if grad is None:
                    continue
                if is_interior:
                    stashed = pending.get(in_slot)
                    pending[in_slot] = grad if stashed is None else stashed + grad
                else:
                    accumulate(in_slot, grad)
            for parent_slot in entry.parent_slots:
                stashed = pending.pop(parent_slot, None)
                if stashed is not None:
                    existing = grads[parent_slot]
                    grads[parent_slot] = (
                        stashed if existing is None else existing + stashed
                    )
        for slot in plan.order:
            remaining = grads[slot]
            if remaining is not None:
                grads[slot] = None
                accumulate(slot, remaining)
        return leaf_grads


def _batched_vjp(
    rec: OpRecord, ctx: OpContext, grad: np.ndarray, k: int
) -> Sequence[Optional[np.ndarray]]:
    if rec.op.batched_vjp is not None:
        input_grads = rec.op.batched_vjp(ctx, grad, rec.needs)
    else:
        input_grads = rec.op.vjp(ctx, grad, rec.needs)
    # Normalise every batched input's gradient to (K,) + traced shape so
    # accumulation across records lines up slot-by-slot.
    normalised = []
    for idx, g in enumerate(input_grads):
        if g is None:
            normalised.append(None)
            continue
        want = (k,) + rec.in_shapes[idx]
        if g.shape != want:
            g = g.reshape(want)
        normalised.append(g)
    return normalised


def optimize_plan(plan) -> PlanOptimization:
    """Compile ``plan`` into its replay program; :class:`PlanError` if it cannot."""
    records = plan.records
    n_records = len(records)

    # ---- dead-code elimination ---------------------------------------- #
    needed = {plan.loss_slot}
    keep = [False] * n_records
    for i in range(n_records - 1, -1, -1):
        rec = records[i]
        if rec.out_slot in needed or rec.has_effect:
            keep[i] = True
            needed.update(rec.input_slots)
    dropped = tuple(i for i in range(n_records) if not keep[i])
    # Every backward-visited slot must belong to a kept record (they are all
    # dataflow ancestors of the loss); anything else means an invariant the
    # passes rely on does not hold for this plan.
    for slot in plan.order:
        rec = plan.rec_for_slot.get(slot)
        if rec is not None and not keep[plan._rec_index[id(rec)]]:
            raise PlanError("backward schedule visits a record dead-code elimination dropped")

    kept = [i for i in range(n_records) if keep[i]]
    if not kept:
        raise PlanError("traced step has no record reaching the loss")

    # ---- consumer analysis (over kept records only) -------------------- #
    use_count: Dict[int, int] = {}
    consumers: Dict[int, List[int]] = {}
    for i in kept:
        for s in records[i].input_slots:
            use_count[s] = use_count.get(s, 0) + 1
            consumers.setdefault(s, []).append(i)

    # ---- fusion: maximal adjacent single-consumer elementwise runs ----- #
    chains: List[List[int]] = []
    groups: List[List[int]] = []
    pos = 0
    while pos < len(kept):
        i = kept[pos]
        rec = records[i]
        spec = _SPECS.get(id(rec.op))
        run = [i]
        while spec is not None and spec.fusable:
            if pos + 1 >= len(kept):
                break
            j = kept[pos + 1]
            next_rec = records[j]
            next_spec = _SPECS.get(id(next_rec.op))
            if (
                next_spec is None
                or not next_spec.fusable
                or rec.out_slot == plan.loss_slot
                or use_count.get(rec.out_slot, 0) == 0
                or consumers.get(rec.out_slot) != [j] * use_count[rec.out_slot]
                or rec.out_slot not in next_rec.input_slots
            ):
                break
            run.append(j)
            pos += 1
            rec, spec = next_rec, next_spec
        groups.append(run)
        if len(run) >= 2:
            chains.append(run)
        pos += 1

    # ---- instruction build + arena assignment -------------------------- #
    interior_slots = set()
    for run in chains:
        for i in run[:-1]:
            interior_slots.add(records[i].out_slot)

    program: List[_Instr] = []
    buffer_for: Dict[int, np.ndarray] = {}
    free_pool: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
    arena_buffers = 0
    # Liveness: last program position reading each env-visible slot.
    instr_env_reads: List[set] = []
    produced_at: Dict[int, int] = {}

    def build_sub(i: int, chain_in: Optional[int]) -> _Sub:
        rec = records[i]
        keep_ctx = rec.out_slot in plan._interior
        argspec = tuple(
            _CHAIN if (chain_in is not None and s == chain_in) else s
            for s in rec.input_slots
        )
        return _Sub(i, rec, argspec, keep_ctx)

    for run in groups:
        chain_prev: Optional[int] = None
        subs: List[_Sub] = []
        env_reads: set = set()
        for i in run:
            sub = build_sub(i, chain_prev)
            env_reads.update(s for s in sub.argspec if s != _CHAIN)
            subs.append(sub)
            chain_prev = records[i].out_slot
        last = records[run[-1]]
        program.append(_Instr(tuple(subs), last.out_slot))
        instr_env_reads.append(env_reads)
        produced_at[last.out_slot] = len(program) - 1

    last_read: Dict[int, int] = {}
    for p, reads in enumerate(instr_env_reads):
        for s in reads:
            last_read[s] = p

    # Release lists: drop env entries of *produced* slots at their last read
    # (leaves stay bound; the loss slot is cleared by execute itself).
    for slot, p in last_read.items():
        if slot in produced_at and slot != plan.loss_slot:
            instr = program[p]
            instr.releases = instr.releases + (slot,)

    # Arena assignment with liveness-driven pooling: walk the program in
    # order; a slot's buffer returns to the (shape, dtype) pool after its
    # last read iff nothing retains the value for the backward sweep.
    def poolable(slot: int) -> bool:
        rec = plan.rec_for_slot.get(slot)
        if rec is None or slot == plan.loss_slot:
            return False
        spec = _SPECS.get(id(rec.op))
        if spec is None or spec.retains_out:
            return False
        for ci in consumers.get(slot, ()):
            cspec = _SPECS.get(id(records[ci].op))
            if cspec is None or cspec.retains_args:
                return False
        return True

    release_handles: List[List[np.ndarray]] = [[] for _ in program]
    for p, instr in enumerate(program):
        for sub in instr.subs:
            rec = sub.rec
            spec = _SPECS.get(id(rec.op))
            if not _out_eligible(plan, rec, spec):
                continue
            key = (tuple(rec.out_shape), str(rec.out_dtype))
            pool = free_pool.get(key)
            if pool:
                buf = pool.pop()
            else:
                buf = np.empty(rec.out_shape, dtype=rec.out_dtype)
                arena_buffers += 1
            writer = _PLAIN_WRITERS.get(id(rec.op))
            if writer is None:
                writer = _make_scratch_writer(rec)
            if writer is None:
                continue
            sub.writer = writer
            sub.out_buf = buf
            buffer_for[rec.out_slot] = buf
            if poolable(rec.out_slot):
                # Chain interiors die inside this very instruction; env slots
                # die at their recorded last read.
                free_at = (
                    p
                    if rec.out_slot in interior_slots
                    else last_read.get(rec.out_slot, p)
                )
                release_handles[free_at].append(buf)
        for buf in release_handles[p]:
            key = (buf.shape, str(buf.dtype))
            free_pool.setdefault(key, []).append(buf)

    return PlanOptimization(
        plan,
        program,
        dropped,
        tuple(tuple(run) for run in chains),
        last_read,
        buffer_for,
        arena_buffers,
    )


__all__ = ["PlanOptimization", "optimize_plan"]
