"""Two configs with one canonical form train one run.

``FederatedConfig.canonical()`` is the run-cache key: every ``exact`` /
``observational`` label and every ``inert`` / ``fold`` rule declared in
``repro.federated.config`` claims that the knobs it folds cannot move a run.
One property checks those claims together.  It draws a base config from the
declarations themselves (``choices``, ``minimum``, ``check`` and the cross-knob
rules the constructor applies) on top of the tiny fixtures, then walks the
knobs in a drawn order and keeps a drawn value only where the variant's
canonical form still equals the base's.  The two runs must agree bit for bit;
resuming the variant from a drawn checkpoint, under drawn ``exact`` /
``observational`` knobs, must also reproduce its communication ledger; and no
run of a config the constructor accepts may raise.

A failing draw becomes an entry of ``EXAMPLES`` below, run as a test case of
its own, before the program is fixed; the strategy is never narrowed to avoid
one.  The examples also pin each labelled knob on its own and the serial /
pooled, codec and resume pairs.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import typing
from dataclasses import fields, replace
from typing import NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federated import FaultSpec, parse_checkpoint_name, simulation_state_hash
from repro.federated.communication import CODEC_NAMES, build_codec
from repro.federated.config import CHANGES_RESULTS, FederatedConfig

SPECS = {spec.name: spec for spec in fields(FederatedConfig)}
TYPES = typing.get_type_hints(FederatedConfig)
#: Every knob but the sub-configs the tiny fixture fixes, whose sizes set what
#: a run costs (``increment``, ``local``).
DRAWN = tuple(name for name in SPECS if name not in ("increment", "local"))
#: A path knob (a ``str`` with neither ``choices`` nor ``check``) is ``""`` or
#: this marker, which each run points at a fresh directory of its own.
DIR = "dir"
PATHS = tuple(
    name for name, spec in SPECS.items()
    if TYPES[name] is str and spec.metadata["choices"] is None and spec.metadata["check"] is None
)  # fmt: skip
#: How far above its ``minimum`` (or 0) an integer knob is drawn, 2 unless
#: named: bounds that keep a draw on the tiny fixtures a fraction of a second.
SPAN = {"bandwidth_limit": 60_000, "population": 600, "eval_batch_size": 15}
METHODS = ("finetune", "refil", "refil_gpl")
#: Every knob a declaration claims cannot move a run somewhere.
LABELLED = tuple(
    name for name, spec in SPECS.items()
    if spec.metadata["effect"] != CHANGES_RESULTS or spec.metadata["inert"] or spec.metadata["fold"]
)  # fmt: skip
#: What a relaunch may change: the knobs a checkpoint's fingerprint leaves
#: out, but for the two that make it a resume.
RELAUNCH = tuple(
    name for name, spec in SPECS.items()
    if spec.metadata["effect"] != CHANGES_RESULTS and name not in ("checkpoint_dir", "resume")
)  # fmt: skip
#: Tier-1 draws 30 cases; the deep profile (CI's composition sweep) 300.
DRAWS = max(1, settings.default.max_examples * 3 // 10)


class Case(NamedTuple):
    method: str
    #: Knob overrides of the tiny fixture config.
    base: dict
    #: Overrides of ``base``; the result has ``base``'s canonical form.
    variant: dict
    #: Overrides of ``variant`` under which it resumes from one of its own
    #: checkpoints; ``None`` runs no resume.
    relaunch: Optional[dict] = None
    #: Which checkpoint: an index into them in resume order, modulo their count.
    pick: int = 0


def _values(name: str) -> st.SearchStrategy:
    """What the declaration of ``name`` admits."""
    rule, kind = SPECS[name].metadata, TYPES[name]
    if rule["choices"] is not None:
        return st.sampled_from(rule["choices"])
    if rule["check"] is build_codec:
        return st.sampled_from(CODEC_NAMES)
    if name in PATHS:
        return st.sampled_from(("", DIR))
    if kind is bool:
        return st.booleans()
    low = rule["minimum"] or 0
    if kind is int:
        return st.integers(low, low + SPAN.get(name, 2))
    if kind is float:
        return st.floats(low, low + 2.0)
    assert kind is FaultSpec, f"no strategy for {name}: {kind}"
    rates = typing.get_type_hints(FaultSpec)
    return st.builds(FaultSpec, **{
        field: st.floats(0.0, 1.0) if rates[field] is float else st.integers(0, 2)
        for field in rates
    })  # fmt: skip


def _walk(draw, config: FederatedConfig, names, keep=lambda candidate: True) -> FederatedConfig:
    """Draw a value for each of ``names`` in a drawn order; keep each one the
    constructor accepts and ``keep(candidate)`` admits."""
    for name in draw(st.permutations(names)):
        try:
            candidate = replace(config, **{name: draw(_values(name))})
        except ValueError:  # a cross-knob rule
            continue
        if keep(candidate):
            config = candidate
    return config


def _moved(old: FederatedConfig, new: FederatedConfig) -> dict:
    return {name: getattr(new, name) for name in SPECS if getattr(new, name) != getattr(old, name)}


@st.composite
def cases(draw) -> Case:
    # The walks fold configs with the default sub-configs, the runs use the
    # tiny fixture's: no rule reads them, and the test asserts the two agree.
    base = _walk(draw, FederatedConfig(), DRAWN)
    canonical = base.canonical()
    variant = _walk(draw, base, DRAWN, keep=lambda candidate: candidate.canonical() == canonical)
    relaunch = None
    if variant.checkpoint_dir:
        resumed = replace(variant, resume=True)
        relaunch = _moved(resumed, _walk(draw, resumed, RELAUNCH))
    return Case(
        draw(st.sampled_from(METHODS)),
        {name: getattr(base, name) for name in DRAWN},
        _moved(base, variant),
        relaunch,
        draw(st.integers(0, 7)),
    )


def _rooted(config: FederatedConfig, root: str) -> FederatedConfig:
    """``config`` with every set path knob a fresh directory under ``root``."""
    return replace(config, **{
        name: os.path.join(root, name) for name in PATHS if getattr(config, name)
    })  # fmt: skip


def _outcome(simulation, result) -> dict:
    return dict(
        state_hash=simulation_state_hash(simulation),
        round_losses=result.round_losses,
        round_loss_components=result.round_loss_components,
        matrix=result.metrics.matrix.tobytes(),
        event_log=result.event_log,
        round_eval_history=result.round_eval_history,
        sim_time=result.sim_time,
    )


#: Explicit cases: each labelled knob on its own, the serial / pooled, codec
#: and resume pairs, and the regressions the property found.
BASE2 = {"rounds_per_task": 2}
PARALLEL = {"executor": "parallel", "num_workers": 2}
EVAL_POOL = {"eval_executor": "parallel", "num_workers": 2}
SAVED = {"rounds_per_task": 2, "checkpoint_dir": DIR}
CHECKPOINTED = {**SAVED, "checkpoint_every": 1}
EXAMPLES = [
    # Each labelled knob on its own, in the default context.
    *(Case("finetune", BASE2, variant) for variant in (
        {"executor": "parallel"},
        {"num_workers": 2, "executor": "parallel"},
        EVAL_POOL,
        {"checkpoint_every": 1, "checkpoint_dir": DIR},
        {"checkpoint_dir": DIR},
        {"resume": True, "checkpoint_dir": DIR},  # an empty directory starts fresh
        {"checkpoint_keep": 1, "checkpoint_dir": DIR},
        {"serve": True, "registry_dir": DIR},
        {"publish_every": 1, "registry_dir": DIR},
        {"registry_dir": DIR},
        {"serve_codec": "quantize8", "registry_dir": DIR},
        {"codec": "delta"},
        {"drop_stragglers": True},
        {"buffer_size": 7},
        {"retries": 0},
        {"retry_backoff": 3.0},
        {"virtual_clients": True},
        {"tree_fanout": 5},
    )),  # fmt: skip
    # A serial checkpoint resumes under the parallel executor.
    Case("finetune", BASE2, {"checkpoint_every": 1, "checkpoint_dir": DIR}, PARALLEL),
    # Serial and pooled training, one and two workers.
    Case("refil", {}, PARALLEL),
    Case("refil", BASE2, PARALLEL),
    Case("refil", {"executor": "parallel", "num_workers": 1}, {"num_workers": 2}),
    # refil_gpl trains persistent static prompts, exported and imported by the pool.
    Case("refil_gpl", BASE2, PARALLEL),
    # Serial and pooled evaluation at both dtypes, one and three workers, and
    # with eval_every snapshots.
    Case("refil", {"dtype": "float64", "eval_batch_size": 4}, EVAL_POOL),
    Case("refil", {"dtype": "float32", "eval_batch_size": 4}, EVAL_POOL),
    Case("refil", {**EVAL_POOL, "eval_batch_size": 4, "num_workers": 1}, {"num_workers": 3}),
    Case("refil", {**BASE2, "eval_every": 1, "eval_batch_size": 4}, EVAL_POOL),
    # One pool for both planes.
    Case("refil", {"eval_batch_size": 4}, {**PARALLEL, **EVAL_POOL}),
    # The untimed sync engine under both executors and dtypes.
    Case("finetune", {**BASE2, "mode": "sync", "dtype": "float64"}, PARALLEL),
    Case("finetune", {**BASE2, "mode": "sync", "dtype": "float32"}, PARALLEL),
    # The event clock under both executors.
    Case("finetune", {**BASE2, "mode": "async", "device_profile": "mild"}, PARALLEL),
    # Lossless delta against identity, serial and pooled.
    Case("refil", BASE2, {"codec": "delta"}),
    Case("refil", {**BASE2, "dtype": "float32"}, {"codec": "delta", **PARALLEL}),
    # Retry knobs without frame faults, and checkpoint writing.
    Case("finetune", BASE2, {**CHECKPOINTED, "retries": 7, "retry_backoff": 3.0}),
    # Resume from the earliest checkpoint in every mode (quantize8 has no
    # downlink acks to restore, delta restores them), and in fleet mode.
    Case("finetune", {**CHECKPOINTED, "mode": "sync"}, {}, {}),
    Case("finetune", {**SAVED, "mode": "async"}, {}, {}),
    Case("finetune", {**SAVED, "mode": "buffered"}, {}, {}),
    Case("finetune", {**SAVED, "mode": "buffered", "codec": "quantize8"}, {}, {}),
    Case("finetune", {**CHECKPOINTED, "codec": "delta"}, {}, {}),
    Case("finetune", {**CHECKPOINTED, "virtual_clients": True, "population": 500}, {}, {}),
    # Regression: a resumed RefFiL run's first delta broadcast spelled out the
    # payload's unpickled "counts" key, 7 B a frame more than a fresh run's.
    Case("refil", {**CHECKPOINTED, "codec": "delta"}, {}, {}),
]


def _name(case: Case) -> str:
    """A test id: the method, then the base, variant and relaunch overrides."""
    parts = [case.method, case.base, case.variant]
    if case.relaunch is not None:
        parts += ["resume", case.relaunch]
    return "|".join(
        part if isinstance(part, str) else ",".join(f"{k}={v}" for k, v in part.items())
        for part in parts
    )


def _assert_one_run(case: Case, tiny_federated_config, simulate) -> None:
    base = replace(tiny_federated_config, **case.base)
    variant = replace(base, **case.variant)
    assert variant.canonical() == base.canonical()
    with tempfile.TemporaryDirectory() as root:
        expected = _outcome(*simulate(_rooted(base, os.path.join(root, "base")), case.method))
        variant = _rooted(variant, os.path.join(root, "variant"))
        variant_simulation, variant_result = simulate(variant, case.method)
        assert _outcome(variant_simulation, variant_result) == expected
        if case.relaunch is None:
            return
        names = sorted(os.listdir(variant.checkpoint_dir), key=parse_checkpoint_name)
        picked = names[case.pick % len(names)]
        relaunch = _rooted(replace(variant, **case.relaunch), os.path.join(root, "relaunch"))
        relaunch = replace(relaunch, resume=True)
        os.makedirs(relaunch.checkpoint_dir)
        shutil.copy(os.path.join(variant.checkpoint_dir, picked), relaunch.checkpoint_dir)
        simulation, result = simulate(relaunch, case.method)
        assert result.fault_stats["resumed_from"] is not None
        assert _outcome(simulation, result) == expected
        assert result.communication == variant_result.communication


@pytest.mark.parametrize("case", EXAMPLES, ids=_name)
def test_an_explicit_example_trains_one_run(case, tiny_federated_config, simulate):
    _assert_one_run(case, tiny_federated_config, simulate)


@settings(
    max_examples=DRAWS,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=cases())
def test_one_canonical_form_trains_one_run(case, tiny_federated_config, simulate):
    _assert_one_run(case, tiny_federated_config, simulate)


def test_every_labelled_knob_is_moved_by_an_explicit_example(tiny_federated_config):
    moved = set()
    for case in EXAMPLES:
        base = replace(tiny_federated_config, **case.base)
        variant = replace(base, **case.variant)
        relaunch = replace(variant, **(case.relaunch or {}))
        moved |= set(_moved(base, variant)) | set(_moved(variant, relaunch))
    assert set(LABELLED) <= moved, sorted(set(LABELLED) - moved)


def test_a_timed_profile_keeps_lossless_codecs_apart(simulate, tiny_federated_config):
    """Regression: ``codec`` folded ``delta`` onto ``identity`` whenever no
    bandwidth budget was set, but a timed device profile charges each frame's
    length to the simulated clock, so their runs differ."""
    base = replace(
        tiny_federated_config, mode="async", device_profile="homogeneous", rounds_per_task=2
    )
    delta = replace(base, codec="delta")
    assert delta.canonical() != base.canonical()
    assert _outcome(*simulate(delta)) != _outcome(*simulate(base))
