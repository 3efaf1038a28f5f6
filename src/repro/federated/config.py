"""Configuration of a federated domain-incremental run: one declaration per knob.

Every :class:`FederatedConfig` field is a :func:`knob` call holding its
default, its documentation, its constraint and its *effect* on a run's
results.  Validation, the class docstring, the README table (``python -m
repro.federated.knobs`` prints it), the run-cache key
(:meth:`FederatedConfig.canonical`) and the checkpoint fingerprint
(:meth:`FederatedConfig.fingerprint`) are derived from those declarations.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import numbers
import re
import textwrap
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from repro.federated.client import LocalTrainingConfig
from repro.federated.clock import PROFILE_TIERS
from repro.federated.communication import build_codec, codec_is_lossless
from repro.federated.faults import FaultSpec
from repro.federated.increment import ClientIncrementConfig

#: What a knob can do to a run's results (the README table's Effect column).
CHANGES_RESULTS = "changes-results"  # may change the trained numbers or the recorded outputs
EXACT = "exact"  # changes how a run executes; its results stay bit-for-bit identical
OBSERVATIONAL = "observational"  # records or serves the run without touching its trajectory

_EXECUTORS = ("serial", "parallel")


def knob(
    default, *, doc, effect=CHANGES_RESULTS, minimum=None, choices=None, check=None,
    inert=None, fold=None,
):  # fmt: skip
    """Declare one ``FederatedConfig`` field.

    ``default`` is the default value, or the zero-argument factory of a
    sub-config.  ``minimum`` / ``choices`` / ``check`` (a callable raising
    ``ValueError``) constrain the value; its type comes from the annotation.
    An ``exact`` or ``observational`` knob always canonicalises to its
    default; a ``changes-results`` knob may carry ``inert(config)`` — true
    where it provably cannot matter, so it canonicalises to its default there
    — or ``fold(config)``, which returns its canonical value.
    """
    metadata = dict(
        doc=inspect.cleandoc(doc), effect=effect, minimum=minimum, choices=choices, check=check,
        inert=inert, fold=fold,
    )  # fmt: skip
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


#: Annotated type -> what ``isinstance`` accepts for it (NumPy scalars pass).
_ACCEPTED = {int: numbers.Integral, float: numbers.Real, bool: (bool, np.bool_)}


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {spec.name: _ACCEPTED.get(hints[spec.name], hints[spec.name]) for spec in fields(cls)}


def _default(spec):
    return spec.default if spec.default is not MISSING else spec.default_factory()


@dataclass(frozen=True)
class FederatedConfig:
    """Everything the simulation loop needs besides the method and the data."""

    increment: ClientIncrementConfig = knob(ClientIncrementConfig, doc="""
        Client-population dynamics (initial clients, increment per task,
        Old/In-between/New transfer fraction).""")
    clients_per_round: int = knob(5, minimum=1, doc="""
        How many of the active clients are selected each communication round
        (the paper's "10 initially selected" / "select 8 clients" settings).""")
    rounds_per_task: int = knob(3, minimum=1, doc="""
        Global communication rounds per incremental task (R in Algorithm 1).""")
    local: LocalTrainingConfig = knob(LocalTrainingConfig, doc="""
        Local SGD hyper-parameters shared by all clients (epochs, batch size,
        learning rate; momentum 0.9 and the 5.0 global clip are fixed).""")
    eval_batch_size: int = knob(64, minimum=1, doc="""
        Batch size of every evaluation pass (the after-task accuracy matrix
        and ``eval_every`` snapshots); the parallel eval backend slices test
        shards on the same boundaries.  Must be at least 1.""")
    seed: int = knob(0, doc="""
        Master seed; every stochastic component derives its stream from it.""")
    # The execution and eval-plane suites assert serial/parallel parity
    # bit-for-bit, so these three only say *how* a run executes.
    executor: str = knob("serial", effect=EXACT, choices=_EXECUTORS, doc="""
        How a round's selected clients run: ``"serial"`` (historical
        single-process loop) or ``"parallel"`` (process-pool fan-out; see
        :mod:`repro.federated.execution`).  Results are identical for a given
        seed either way.""")
    num_workers: int = knob(0, effect=EXACT, minimum=0, doc="""
        Worker processes for the parallel executor; ``0`` means one per CPU.
        Ignored when ``executor="serial"``.""")
    dtype: str = knob("float32", choices=("float64", "float32"), doc="""
        Compute precision of the whole pipeline: ``"float32"`` (default) or
        ``"float64"`` (the reference, and the autograd default outside a run).
        Against float64, over ten interleaved pairs of the end-to-end
        benchmark on a 2-core VM, float32 runs ``train_reffil`` in 26% less
        time (1.80 -> 1.33 s), ``eval_stream`` in 31% less and
        ``fleet_buffered`` in 26% less, with 16-20% lower peak RSS and 49%
        fewer identity-codec wire bytes (RefFiL's prompt store stays
        float64).  A run at either dtype is a different trajectory, and so
        is a float32 run after any change of summation order: the fidelity
        gate's Table I Avg claim holds over seeds 0-2 at float32 only
        (+8.36 against a pooled std of 6.89; float64 +1.16 against 5.13),
        and over seeds 0-5 at neither.""")
    eval_executor: str = knob("serial", effect=EXACT, choices=_EXECUTORS, doc="""
        How the seen-task evaluation suite runs: ``"serial"`` (historical
        in-process loop) or ``"parallel"`` (fan seen tasks × batch-aligned
        test-shard slices over the pinned worker pool — shared with the
        training plane when ``executor="parallel"``; see
        :class:`repro.federated.execution.ParallelEvalBackend`).  Accuracy
        matrices are bit-for-bit identical either way.""")
    eval_every: int = knob(0, minimum=0, doc="""
        ``0`` (default) evaluates only after each task's final round.  A
        positive ``k`` additionally scores the global model on every seen
        domain after every ``k``-th round of each task, recording the
        snapshots into ``SimulationResult.round_eval_history`` — the paper's
        per-round accuracy curves, an O(T·R) evaluation workload.  Each
        model version is scored once per seen-task set: when ``k`` divides
        ``rounds_per_task``, the final round's snapshot is reused as the
        accuracy matrix's after-task evaluation unless the method's
        ``on_task_end`` hook assigned server state, in which case the new
        state is scored (rule 5 of :mod:`repro.federated.method`).""")
    # The lossless codecs fold to "identity" only where frame sizes are read by
    # nothing: a bandwidth budget drops or defers by size, and a timed device
    # profile charges each frame's length / link rate to the simulated clock,
    # which orders arrivals (tests/test_composition.py runs the rule).
    codec: str = knob("identity", check=build_codec, fold=lambda c: (
        "identity"
        if c.bandwidth_limit == 0 and c.device_profile == "instant" and codec_is_lossless(c.codec)
        else c.codec), doc="""
        Wire codec every broadcast and upload frame is encoded with
        (:mod:`repro.federated.transport`; bytes are *measured* frame
        lengths).  Every frame is columnar — one ``(name, dtype, shape)``
        table (deflated JSON, the same bytes for every frame of one table)
        plus a few flat columns per message, never a record per array:
        ``"identity"`` (one raw column per dtype) and ``"delta"`` (index and
        value columns of what changed since the last acknowledged broadcast)
        are lossless — every value decodes bit-for-bit, so under the
        ``"instant"`` device profile and no ``bandwidth_limit`` the two train
        and record the same run, while a timed profile or a budget reads
        their different frame lengths;
        ``"quantize8"`` / ``"quantize16"`` (one integer code column, a
        ``lo`` / ``scale`` pair per tensor) and ``"topk"`` (upload-only
        magnitude sparsification keeping 10% of each array) trade accuracy
        for bytes.""")
    bandwidth_limit: int = knob(0, minimum=0, doc="""
        Per-round uplink byte budget per client; ``0`` (default) is
        unlimited.  Each client's effective budget is the limit scaled by a
        deterministic per-client multiplier (drawn from the run seed), so
        some clients are structurally slow — the constrained-device
        straggler scenario.  Requires ``mode="sync"`` (the event-driven
        modes model slow uplinks through ``device_profile`` link rates
        instead; a per-round budget is a synchronous-cohort concept).""")
    # Consulted for a frame over its budget *and* for a frame whose retries
    # ran out, so it is inert only when neither a budget nor frame faults exist.
    drop_stragglers: bool = knob(
        False, inert=lambda c: c.bandwidth_limit == 0 and not c.faults.frame_faults, doc="""
        What happens to an upload frame over its client's budget, or one
        whose retries ran out under frame faults: ``True`` drops it (the
        update never aggregates; the download was still charged), ``False``
        (default) defers it — an over-budget frame to the next round's
        aggregation (deferred frames expire at task boundaries), an
        out-of-retries frame to the end of its own round, where the intact
        copy is re-requested and recorded ``deferred``.  A round that would
        lose every upload to the budget always keeps the smallest frame.""")
    # mode and device_profile always stay in the run-cache key: async/buffered
    # change the trained numbers outright, and even a tier that leaves a sync
    # run's numbers alone changes its temporal telemetry (sim_time, event_log,
    # every eval snapshot's sim_time) — the output a caller varying it is after.
    mode: str = knob("sync", choices=("sync", "async", "buffered"), doc="""
        The temporal plane's aggregation regime
        (:mod:`repro.federated.async_plane`): ``"sync"`` (default) is the
        synchronous round loop (with homogeneous instantaneous device
        profiles, bit-for-bit identical to the untimed engine); ``"async"``
        applies each client's update the moment it arrives on the simulated
        clock, FedAsync-style, with the polynomial staleness discount
        ``(1 + staleness)^(-0.5)``; ``"buffered"`` aggregates every
        ``buffer_size`` arrivals, FedBuff-style, with FedAvg weights scaled
        by the same discount.  All three
        train the same total number of local updates per task
        (``rounds_per_task * clients_per_round``), so regimes are compared
        at equal compute.""")
    device_profile: str = knob("instant", choices=tuple(PROFILE_TIERS), doc="""
        Named system-heterogeneity tier
        (:data:`repro.federated.clock.PROFILE_TIERS`): ``"instant"``
        (default; zero simulated cost, always online — the temporal no-op),
        ``"homogeneous"`` (identical finite device speeds), or the
        heterogeneity ladder ``"mild"`` / ``"moderate"`` / ``"extreme"``
        (increasingly spread compute speeds and link rates, decreasing
        availability, per-task churn).  Every client's profile and its
        online/offline trace derive from
        ``spawn_rng(seed, "device", client_id, ...)``.""")
    buffer_size: int = knob(0, minimum=0, inert=lambda c: c.mode != "buffered", doc="""
        Buffered mode's K: aggregate whenever K arrivals have accumulated
        (a partial buffer left at the end of a task still flushes).  ``0``
        (default) means ``clients_per_round`` — the synchronous cohort size.
        Ignored outside ``mode="buffered"``.""")
    # No inert rule: every field is a rate or a period, so every spec but the
    # default can fire, and the default never constructs an injector.
    faults: FaultSpec = knob(FaultSpec, doc="""
        The fault plane's schedule (:class:`repro.federated.faults.FaultSpec`):
        per-round client-crash probability, per-attempt upload loss/corruption
        probabilities, and a periodic simulated server restart.  The default
        all-zero spec never constructs an injector — the zero-fault path is
        bit-for-bit identical to a build without the fault plane.""")
    # Without frame faults no frame ever fails, so the retry bound and the
    # backoff are never consulted; with them they change delivery and stay.
    retries: int = knob(2, minimum=0, inert=lambda c: not c.faults.frame_faults, doc="""
        Retry budget of every faulty hop — a client upload and, under
        ``reduce_backend="tree"``, an edge aggregator's partial: a lost or
        corrupt frame is retransmitted up to this many times (``retries + 1``
        total attempts) before an upload falls to the drop/defer straggler
        rule (an edge partial is then delivered in process).  Every attempt's
        bytes are charged to the ledger.  The backoff waits between an
        upload's attempts are charged to its client's cycle: the straggler
        barrier in ``mode="sync"``, its arrival time on the event clock
        otherwise.  An edge hop's waits join only the synchronous round's
        barrier; under ``mode="async"`` / ``"buffered"`` nothing reads them,
        so edge-hop backoff never reaches the event clock.""")
    retry_backoff: float = knob(0.5, minimum=0, inert=lambda c: not c.faults.frame_faults, doc="""
        Simulated seconds of the first retry wait; each further retry doubles
        it (exponential backoff).  ``0`` retries instantly.""")
    # Checkpoint bookkeeping (where / how often to snapshot, how many to keep,
    # whether the process resumed) never changes the trained numbers — the
    # resume tests assert bit-for-bit equality.
    checkpoint_every: int = knob(0, effect=OBSERVATIONAL, minimum=0, doc="""
        Sync mode: additionally snapshot the run every N rounds within a task
        (``0``, the default, checkpoints only at task boundaries).  Requires
        ``checkpoint_dir``.  Task-boundary checkpoints are written in every
        mode whenever ``checkpoint_dir`` is set.""")
    checkpoint_dir: str = knob("", effect=OBSERVATIONAL, doc="""
        Directory for crash-safe ``ckpt-t####-r#####.ckpt`` snapshots
        (:mod:`repro.federated.checkpoint`).  Empty (default) disables
        checkpointing entirely — and the simulation then performs zero extra
        work, preserving bit-for-bit identity.""")
    resume: bool = knob(False, effect=OBSERVATIONAL, doc="""
        Start from the latest checkpoint in ``checkpoint_dir`` instead of from
        scratch.  The checkpoint's config fingerprint must match (it covers
        the ``changes-results`` knobs only, so the executor and every
        checkpoint / serving knob may differ); a fresh directory silently
        starts from scratch, so the same command line works for the first
        launch and every relaunch after a crash.""")
    checkpoint_keep: int = knob(0, effect=OBSERVATIONAL, minimum=0, doc="""
        Retention bound on ``ckpt-*.ckpt`` files: after every checkpoint
        write, all but the newest K are pruned (oldest resume positions
        first, each removal atomic).  ``0`` (default) keeps every checkpoint
        — the historical unbounded behaviour.  The serving plane's registry
        applies the same last-K policy to published versions.""")
    # The registry and the front end *observe* the run (snapshot publishes,
    # read-only inference on frozen copies); the serving tests assert served
    # logits are bit-for-bit with direct evaluation.
    serve: bool = knob(False, effect=OBSERVATIONAL, doc="""
        Stand up the serving plane alongside training: an
        :class:`~repro.serving.engine.InferenceEngine` plus
        :class:`~repro.serving.service.ServingFrontEnd` (exposed as
        ``simulation.serving``) serve predictions from the registry while the
        run publishes into it, hot-swapping at every publish.  Requires
        ``registry_dir``.  Purely observational: trained numbers are
        bit-for-bit identical with serving on or off.""")
    publish_every: int = knob(0, effect=OBSERVATIONAL, minimum=0, doc="""
        Sync mode: additionally publish a registry version every N rounds
        within a task (``0``, the default, publishes only at task
        boundaries).  Requires ``registry_dir``.  Task-boundary versions are
        published in every mode whenever ``registry_dir`` is set.""")
    registry_dir: str = knob("", effect=OBSERVATIONAL, doc="""
        Directory of the serving plane's model registry
        (:mod:`repro.serving.registry`; ``version-######.rpv`` files plus
        ``manifest.json``, written atomically).  Empty (default) disables
        publishing entirely — the simulation then performs zero extra work,
        preserving bit-for-bit identity.""")
    serve_codec: str = knob("identity", effect=OBSERVATIONAL, check=build_codec, doc="""
        Wire codec published versions are compressed with — the same specs as
        ``codec`` (``"identity"`` / ``"delta"`` lossless, ``"quantize8"`` /
        ``"quantize16"`` / ``"topk"`` lossy).  A version stores its
        *encoded* form, so every consumer of a version decodes the same
        arrays deterministically.""")
    # Read by nothing but the population rule below; a fleet population
    # changes the cohorts outright and keeps both knobs in the key.
    virtual_clients: bool = knob(False, inert=lambda c: c.population == 0, doc="""
        No code path reads this knob: every run keeps its clients as lazy
        recipes in the client data plane (:mod:`repro.federated.virtual`),
        materializing a shard only when its client is selected.  It is
        required (``True``) when ``population > 0``, and it will be retired
        once the end-to-end benchmark stops passing it.""")
    population: int = knob(0, minimum=0, doc="""
        ``0`` (default): the client population is whatever ``increment``
        schedules.  A positive N switches to *fleet mode*: N virtual clients
        (requires ``virtual_clients=True``), every one of them eligible for
        every task, each drawing a per-task quantity-shift shard recipe from
        ``spawn_rng(seed, "vshard", task_id, client_id)``.  Selection,
        availability, churn and crash draws all stay O(cohort) per round, so
        ``population=100_000`` costs the same memory as ``population=1_000``.""")
    # The tree backend stays in the key: its partial sums agree with flat only
    # to accumulation-dtype tolerance.  A flat reduce never consults the fanout.
    reduce_backend: str = knob("flat", choices=("flat", "tree"), doc="""
        How a cohort's updates aggregate (:mod:`repro.federated.aggregation`):
        ``"flat"`` (default) is the star — one server-side FedAvg, bit-for-bit
        the historical path; ``"tree"`` reduces through a fan-out tree of edge
        aggregators whose weighted partial sums ride codec'd wire frames to
        their parents (edge→root bytes measured in the ledger, CRC + bounded
        retries on every hop).  Tree and flat agree to float tolerance
        (~1e-6 relative at float32, ~1e-12 at float64), not bit-for-bit: flat
        normalizes weights before accumulating, the tree sums partials and
        divides once at the root.""")
    tree_fanout: int = knob(2, minimum=2, inert=lambda c: c.reduce_backend == "flat", doc="""
        Children per aggregator node of the reduce tree (≥ 2).  A cohort no
        larger than the fan-out degenerates to a single root reduce with zero
        edge frames.  Ignored when ``reduce_backend="flat"``.""")

    def __post_init__(self) -> None:
        expected = _field_types(type(self))
        for spec in fields(self):
            name, rule, value = spec.name, spec.metadata, getattr(self, spec.name)
            kind = expected[name]
            numeric = kind in (numbers.Integral, numbers.Real)  # where a bool is not an int
            if not isinstance(value, kind) or (numeric and isinstance(value, bool)):
                raise ValueError(
                    f"{name} must be of type {getattr(spec.type, '__name__', spec.type)}, "
                    f"got {type(value).__name__} {value!r}"
                )
            if rule["minimum"] is not None and value < rule["minimum"]:
                raise ValueError(f"{name} must be at least {rule['minimum']}, got {value!r}")
            if rule["choices"] is not None and value not in rule["choices"]:
                raise ValueError(f"{name} must be one of {rule['choices']}, got {value!r}")
            if rule["check"] is not None:
                try:
                    rule["check"](value)
                except ValueError as error:
                    raise ValueError(f"{name}={value!r}: {error}") from error
        for violated, message in _CROSS_KNOB_RULES:
            if violated(self):
                raise ValueError(message)

    def canonical(self) -> "FederatedConfig":
        """This config with every knob that cannot change the results folded away.

        Two configs with equal canonical forms train the same numbers and
        record the same outputs, so they share one memoised run.  ``exact`` and
        ``observational`` knobs and ``changes-results`` knobs whose ``inert``
        rule holds take their defaults; a ``fold`` rule gives its own value.
        Every rule reads the *unfolded* config.  Caveat of sharing: telemetry
        of a cached result (``wall_clock_seconds``, the communication ledger)
        describes whichever variant ran first — use the benches, not the run
        cache, to compare codecs or executors.
        """
        folded = {}
        for spec in fields(self):
            rule = spec.metadata
            if rule["effect"] != CHANGES_RESULTS or (rule["inert"] and rule["inert"](self)):
                folded[spec.name] = _default(spec)
            elif rule["fold"]:
                folded[spec.name] = rule["fold"](self)
        return replace(self, **folded)

    def fingerprint(self) -> str:
        """Digest of the ``changes-results`` knobs: what a checkpoint must match.

        ``exact`` and ``observational`` knobs are left out, so the
        kill-and-resume flow (which differs in exactly those), a served and a
        silent run, and a relaunch under a different executor all share one
        fingerprint — and adding or retiring such a knob strands no checkpoint.
        """
        parts = [
            (spec.name, repr(getattr(self, spec.name)))
            for spec in fields(self)
            if spec.metadata["effect"] == CHANGES_RESULTS
        ]
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


#: Rules relating two knobs, checked after every per-knob constraint:
#: ``(violated(config), message)``.
_CROSS_KNOB_RULES = (
    (
        lambda c: c.bandwidth_limit > 0 and c.mode != "sync",
        "bandwidth_limit requires mode='sync': the event-driven modes collect one upload per "
        "arrival, so the transport's keep-one rule would always deliver the sole over-budget "
        "frame and the budget would be silently inert (model slow uplinks there with "
        "device_profile link rates instead)",
    ),
    (lambda c: c.checkpoint_every > 0 and not c.checkpoint_dir,
     "checkpoint_every requires checkpoint_dir"),
    (
        lambda c: c.checkpoint_every > 0 and c.mode != "sync",
        "checkpoint_every requires mode='sync' (the event-driven modes have no mid-task round "
        "boundary to snapshot at; task-boundary checkpoints still work in every mode via "
        "checkpoint_dir)",
    ),
    (lambda c: c.resume and not c.checkpoint_dir, "resume requires checkpoint_dir"),
    (lambda c: c.publish_every > 0 and not c.registry_dir,
     "publish_every requires registry_dir"),
    (
        lambda c: c.publish_every > 0 and c.mode != "sync",
        "publish_every requires mode='sync' (the event-driven modes have no mid-task round "
        "boundary to publish at; task-boundary versions are still published in every mode via "
        "registry_dir)",
    ),
    (lambda c: c.serve and not c.registry_dir,
     "serve requires registry_dir (the front end serves registry versions)"),
    (
        lambda c: c.population > 0 and not c.virtual_clients,
        "population > 0 requires virtual_clients=True: a fleet-scale population only exists "
        "as lazy recipes, never as eager shards",
    ),
)


def knob_table(cls=FederatedConfig) -> str:
    """The README "Configuration knobs" table, rendered from the declarations."""
    rows = ["| Knob | Default | Effect | Meaning |", "|---|---|---|---|"]
    for spec in fields(cls):
        rule = spec.metadata
        if spec.default is MISSING:
            shown = f"{spec.default_factory.__name__}()"
        else:
            shown = f'"{spec.default}"' if isinstance(spec.default, str) else repr(spec.default)
        conditional = " (conditional)" if rule["inert"] or rule["fold"] else ""
        # reST roles and literals -> Markdown code spans, one line per row.
        meaning = re.sub(r":\w+:`~?([^`]+)`", r"`\1`", " ".join(rule["doc"].split()))
        rows.append(
            f"| `{spec.name}` | `{shown}` | {rule['effect']}{conditional} "
            f"| {meaning.replace('``', '`')} |"
        )
    return "\n".join(rows)


FederatedConfig.__doc__ += "\n\nAttributes\n----------\n" + "\n".join(
    f"{spec.name}:\n{textwrap.indent(spec.metadata['doc'], '    ')}"
    for spec in fields(FederatedConfig)
)

__all__ = ["CHANGES_RESULTS", "EXACT", "OBSERVATIONAL", "FederatedConfig", "knob", "knob_table"]
