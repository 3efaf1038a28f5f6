"""Inference engine: immutable model snapshots with atomic hot swap.

An :class:`InferenceEngine` binds a :class:`~repro.serving.registry.
ModelRegistry` to a :class:`~repro.federated.method.FederatedMethod` and
answers batched ``predict`` requests against its currently installed version.
Two invariants make concurrent serving safe:

* **Snapshots are immutable.**  Installing a version builds a fresh model
  (under the published state's own dtype), loads the decoded arrays into it,
  and freezes the *method* too — a deep copy of the live method object
  that then loads the version's own payload — so neither what the live method
  holds at install time nor a training thread mutating it can bleed into
  responses.  Nothing in a snapshot is written after construction.
* **Swaps are atomic between batches.**  ``predict`` grabs the snapshot
  reference exactly once per batch; ``install``/``refresh`` replace the
  reference in a single assignment.  An in-flight batch therefore finishes
  entirely on the version it started with — no response is ever computed from
  a half-swapped model — and the next batch sees the new version.

Prediction runs under one of two kernels.  ``kernel="eager"`` is the
evaluator's exact path (eval mode, ``no_grad``, the method's own
``predict_logits``).  ``kernel="tape"`` traces the first batch of each input
shape into a :class:`ForwardPlan` — a forward-only compiled program replayed
without tensor wrapping, module traversal or graph bookkeeping — and verifies
the first replay bit-for-bit against eager before trusting it; any divergence
(or an untraceable predict path) falls back to eager for that shape
permanently.  Served logits are therefore bit-for-bit a direct evaluation of
the installed version's own state and payload under either kernel.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tape import PlanCache, PlanError, Tape, tracing
from repro.autograd.tensor import Tensor, default_dtype, no_grad
from repro.serving.registry import (
    LoadedVersion,
    ModelRegistry,
    RegistryError,
    VersionInfo,
)

SERVING_KERNELS = ("eager", "tape")


@dataclass(frozen=True)
class ServedBatch:
    """One batch of logits plus the version that produced every row of it."""

    version: int
    logits: np.ndarray


class ForwardPlan:
    """A traced forward pass compiled for replay (no backward schedule).

    Serving only needs the logits, so the plan keeps just the chronological
    slice of the tape's records that the output depends on.  Parameters,
    buffers and traced constants are baked in at compile time — valid because
    snapshots are immutable — and replay is a flat loop over precomputed
    ``(forward, input_slots, out_slot, kwargs, dtype)`` instructions.

    Refuses to compile anything whose replay could diverge from or mutate the
    snapshot: records with an effect (a train-mode batch-norm reached the
    trace) and rng-driven kwargs (an op drawing random numbers) raise
    :class:`~repro.autograd.tape.PlanError`, sending that shape to the eager
    path.
    """

    __slots__ = ("input_slot", "out_slot", "n_slots", "_instructions", "_leaves")

    def __init__(self, tape: Tape, output: Any) -> None:
        out_slot = tape._slots.get(id(output))
        if out_slot is None:
            raise PlanError("predict output was not produced under this tape")
        input_slot = tape._inputs.get("images")
        if input_slot is None:
            raise PlanError("forward plan requires a marked 'images' input")
        self.input_slot = input_slot
        self.out_slot = out_slot
        self.n_slots = len(tape._tensors)

        # Records the output actually depends on, in chronological order.
        needed = {out_slot}
        keep: List[Any] = []
        for rec in reversed(tape.records):
            if rec.has_effect:
                raise PlanError(
                    f"traced predict has a {rec.op.name!r} record with an effect "
                    "(train-mode running-stat update); serving snapshots must be "
                    "side-effect free"
                )
            if rec.out_slot in needed:
                needed.update(rec.input_slots)
                keep.append(rec)
        keep.reverse()

        produced = {rec.out_slot for rec in keep}
        self._instructions: List[Tuple[Any, Tuple[int, ...], int, Dict[str, Any], Any]] = []
        for rec in keep:
            for value in rec.kwargs.values():
                _reject_stateful_kwarg(value)
            self._instructions.append(
                (rec.op.forward, rec.input_slots, rec.out_slot, rec.kwargs, rec.out_dtype)
            )
        # Every needed slot that no instruction produces and that is not the
        # batch input is a leaf: parameter, buffer-as-constant, or constant.
        self._leaves: List[Tuple[int, np.ndarray]] = []
        for slot in sorted(needed - produced - {input_slot}):
            tensor = tape._tensors[slot]
            self._leaves.append((slot, np.asarray(tensor.data)))

    def run(self, images: np.ndarray) -> np.ndarray:
        """Replay the forward pass on ``images`` and return the logits array."""
        from repro.autograd.tape import OpContext

        env: List[Any] = [None] * self.n_slots
        for slot, value in self._leaves:
            env[slot] = value
        env[self.input_slot] = images
        ctx = OpContext()  # forwards only write scratch, so one context serves all
        for forward, input_slots, out_slot, kwargs, out_dtype in self._instructions:
            result = forward(ctx, *(env[s] for s in input_slots), **kwargs)
            # Mirror Tensor.__init__'s asarray so replayed intermediates match
            # eager dtype/0-d handling exactly (no copy when already matching).
            env[out_slot] = np.asarray(result, dtype=out_dtype)
        return env[self.out_slot]


def _reject_stateful_kwarg(value: Any) -> None:
    if isinstance(value, np.random.Generator):
        raise PlanError("traced predict consumes an rng stream")
    if isinstance(value, tuple):
        for item in value:
            _reject_stateful_kwarg(item)


class _ForwardPlanState:
    """Lifecycle of one forward plan: traced -> verified -> replay-only."""

    __slots__ = ("plan", "verified", "bad")

    def __init__(self, plan: Optional[ForwardPlan]) -> None:
        self.plan = plan
        self.verified = False
        self.bad = plan is None


class ModelSnapshot:
    """One installed version: frozen model + frozen method + per-shape plans.

    Never mutated after construction (the plan cache only accretes compiled
    plans, which is idempotent), so any number of serving threads may predict
    through one snapshot while the engine installs its successor.
    """

    def __init__(
        self,
        loaded: LoadedVersion,
        method: Any,
        kernel: str,
        plan_cache_size: int = 32,
    ) -> None:
        self.info: VersionInfo = loaded.info
        # A frozen copy of the method, its inference state (e.g. the prompt
        # store predict_logits averages) loaded from this version's payload.
        self.method = copy.deepcopy(method)
        self.method.load_broadcast_payload(loaded.payload)
        # The snapshot's compute dtype is the *published state's* dtype: the
        # model is built under it so load_state_dict's in-place cast is the
        # identity and served numbers are the published numbers.
        self.dtype = np.dtype(np.float64)
        for value in loaded.state.values():
            array = np.asarray(value)
            if array.dtype.kind == "f":
                self.dtype = array.dtype
                break
        self.kernel = kernel
        with default_dtype(self.dtype):
            self.model = self.method.build_model()
            self.model.load_state_dict(loaded.state)
        self.model.eval()
        self.plans = PlanCache(max_plans=plan_cache_size)

    def _eager(self, x: Tensor) -> Tensor:
        return self.method.predict_logits(self.model, x)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Logits for one prepared batch (rows of shape ``sample_shape``)."""
        if self.kernel == "tape":
            # Steady-state fast path: a verified plan needs no Tensor wrapper
            # and no grad/dtype context — the replay consumes raw arrays and
            # the cast below is exactly what Tensor.__init__ would have done.
            arr = np.asarray(np.asarray(images), dtype=self.dtype)
            state = self.plans.get((arr.shape, str(arr.dtype)))
            if state is not None and state.verified:
                return state.plan.run(arr)
        with default_dtype(self.dtype), no_grad():
            x = Tensor(np.asarray(images))
            if self.kernel != "tape":
                return np.asarray(self._eager(x).data)
            key = (x.data.shape, str(x.data.dtype))
            state = self.plans.get(key)
            if state is None:
                tape = Tape()
                tape.mark_input("images", x)
                with tracing(tape):
                    logits = self._eager(x)
                try:
                    self.plans.put(key, _ForwardPlanState(ForwardPlan(tape, logits)))
                except PlanError:
                    self.plans.put(key, _ForwardPlanState(None))
                return np.asarray(logits.data)
            if state.bad:
                return np.asarray(self._eager(x).data)
            if not state.verified:
                # First replay must reproduce eager bit-for-bit before the
                # shape goes replay-only; eager stays authoritative here.
                replayed = state.plan.run(x.data)
                eager = np.asarray(self._eager(x).data)
                if np.array_equal(replayed, eager):
                    state.verified = True
                else:
                    state.bad = True
                return eager
            return state.plan.run(x.data)


class InferenceEngine:
    """Serves predictions from registry versions with atomic hot swap."""

    def __init__(
        self,
        registry: ModelRegistry,
        method: Any,
        kernel: str = "eager",
        plan_cache_size: int = 32,
    ) -> None:
        if kernel not in SERVING_KERNELS:
            raise ValueError(
                f"serving kernel must be one of {SERVING_KERNELS}, got {kernel!r}"
            )
        self.registry = registry
        self.method = method
        self.kernel = kernel
        self.plan_cache_size = plan_cache_size
        self._snapshot: Optional[ModelSnapshot] = None
        self._install_lock = threading.Lock()
        self.swap_count = 0

    @property
    def current_version(self) -> Optional[int]:
        snapshot = self._snapshot
        return snapshot.info.version if snapshot is not None else None

    def install(self, version: Optional[int] = None) -> VersionInfo:
        """Load ``version`` (default: latest) and make it the serving snapshot.

        The expensive part — decode, model build, state load — happens outside
        the swap; the swap itself is one reference assignment, so concurrent
        ``predict`` calls never wait on an install and never observe a
        half-built snapshot.
        """
        loaded = self.registry.load(version, self.method.payload_codec())
        with self._install_lock:
            previous = self._snapshot
            if previous is not None and previous.info.version == loaded.info.version:
                return previous.info
            snapshot = ModelSnapshot(
                loaded, self.method, self.kernel, self.plan_cache_size
            )
            self._snapshot = snapshot
            if previous is not None:
                self.swap_count += 1
        return loaded.info

    def refresh(self) -> Optional[VersionInfo]:
        """Install the registry's latest version if newer than the current one.

        Returns the installed :class:`VersionInfo`, or None when already
        current (or the registry is still empty and nothing is installed yet).
        """
        newest = self.registry.latest()
        if newest is None:
            return None
        current = self._snapshot
        if current is not None and newest.version <= current.info.version:
            return None
        return self.install(newest.version)

    def predict(self, images: np.ndarray) -> ServedBatch:
        """Predict one batch on the current snapshot, tagged with its version."""
        snapshot = self._snapshot  # grabbed once: the whole batch rides this version
        if snapshot is None:
            raise RegistryError(
                "no version installed; call install() or refresh() after the "
                "registry's first publish"
            )
        return ServedBatch(version=snapshot.info.version, logits=snapshot.predict(images))


__all__ = [
    "SERVING_KERNELS",
    "ForwardPlan",
    "InferenceEngine",
    "ModelSnapshot",
    "ServedBatch",
]
