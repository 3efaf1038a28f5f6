"""``FederatedConfig`` is declared once; this checks what the declarations promise.

Docstring, README table, validation, run-cache key and checkpoint fingerprint
are all derived from the ``knob(...)`` declarations in
``repro.federated.config``, so they cannot drift.  What *can* be wrong is a
label: a knob declared ``exact`` / ``observational``, or given an ``inert`` /
``fold`` rule, that does change the trained bits.  ``TestEffectLabels`` runs
every such knob.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import os
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import build_method
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.experiments.config import scaled_config
from repro.federated import (
    CheckpointMismatchError,
    FaultSpec,
    FederatedConfig,
    FederatedDomainIncrementalSimulation,
    build_executor,
)
from repro.federated.checkpoint import (
    load_checkpoint,
    parse_checkpoint_name,
    save_checkpoint,
    simulation_state_hash,
)
from repro.federated.config import CHANGES_RESULTS, EXACT, knob, knob_table

README = Path(__file__).resolve().parents[1] / "README.md"

RETIRED = ("plan_optimize", "shard_cache", "transport", "kernel")

FIELDS = dataclasses.fields(FederatedConfig)


def test_docstring_lists_every_knob_in_field_order():
    assert len(FIELDS) == 35
    assert all(field.metadata["doc"].strip() for field in FIELDS)
    attributes = inspect.getdoc(FederatedConfig).split("Attributes\n----------\n", 1)[1]
    listed = re.findall(r"^(\w+):$", attributes, flags=re.MULTILINE)
    assert listed == [field.name for field in FIELDS]


def test_readme_section_is_the_generated_table():
    section = README.read_text(encoding="utf-8").split("## Configuration knobs", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert knob_table() in section, "regenerate it: python -m repro.federated.config"


@pytest.mark.parametrize("name", RETIRED)
def test_retired_knobs_are_not_keywords(name):
    with pytest.raises(TypeError):
        FederatedConfig(**{name: True})
    with pytest.raises(TypeError):
        scaled_config("office_caltech", **{name: True})


def test_build_executor_takes_no_kernel():
    with pytest.raises(TypeError):
        build_executor("serial", kernel="tape")


@pytest.mark.parametrize("value", [0, -1])
def test_eval_batch_size_must_be_positive(value):
    with pytest.raises(ValueError, match="eval_batch_size"):
        FederatedConfig(eval_batch_size=value)


@pytest.mark.parametrize(
    "overrides, blamed",
    [
        # Per-knob checks run before cross-knob rules: the bogus mode is at fault.
        (dict(mode="bogus", bandwidth_limit=1), "mode"),
        (dict(clients_per_round="3"), "clients_per_round"),
        (dict(codec=None), "codec"),
        (dict(eval_every=1.5), "eval_every"),
        (dict(num_workers=1.5), "num_workers"),
        (dict(serve="yes"), "serve"),
        (dict(retries=True), "retries"),  # a bool is not an int
    ],
)
def test_bad_input_is_a_value_error_naming_the_knob(overrides, blamed):
    with pytest.raises(ValueError, match=rf"^{blamed}\b"):
        FederatedConfig(**overrides)


def test_numpy_scalars_are_accepted():
    config = FederatedConfig(seed=np.int64(3), staleness_decay=np.float32(0.5), sim_time_limit=3)
    assert config.seed == 3


def test_scaled_config_overrides_win_over_the_preset():
    config = scaled_config("office_caltech", rounds_per_task=5, tree_fanout=3, faults=None)
    assert config.federated.rounds_per_task == 5
    assert config.federated.tree_fanout == 3
    assert config.federated.faults == FaultSpec()


def test_an_exact_knob_leaves_fingerprint_and_canonical_form_alone():
    @dataclasses.dataclass(frozen=True)
    class Extended(FederatedConfig):
        progress_bar: bool = knob(False, effect=EXACT, doc="Draw a progress bar.")

    assert Extended(progress_bar=True).fingerprint() == FederatedConfig().fingerprint()
    assert Extended(progress_bar=True).canonical() == Extended()
    with pytest.raises(ValueError, match="progress_bar"):
        Extended(progress_bar="yes")


# --------------------------------------------------------------------------- #
# The labels, run
# --------------------------------------------------------------------------- #
def _run(spec, backbone, config):
    scenario = DomainIncrementalScenario(SyntheticDomainDataset(spec), num_tasks=2)
    method = build_method("finetune", backbone, num_tasks=scenario.num_tasks)
    simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
    simulation.run()
    return simulation


@functools.lru_cache(maxsize=None)  # the base run is shared by every case below
def _state_hash(spec, backbone, config) -> str:
    return simulation_state_hash(_run(spec, backbone, config))


def _toggles(tmp: Path) -> dict:
    """Per labelled knob: a non-default value, plus the knobs that value requires."""
    ckpt, registry = str(tmp / "ckpt"), str(tmp / "registry")
    return {
        # exact
        "executor": dict(executor="parallel"),
        "num_workers": dict(num_workers=2, executor="parallel"),
        "eval_executor": dict(eval_executor="parallel", num_workers=2),
        # observational
        "checkpoint_every": dict(checkpoint_every=1, checkpoint_dir=ckpt),
        "checkpoint_dir": dict(checkpoint_dir=ckpt),
        "resume": dict(resume=True, checkpoint_dir=ckpt),
        "checkpoint_keep": dict(checkpoint_keep=1, checkpoint_dir=ckpt),
        "serve": dict(serve=True, registry_dir=registry),
        "publish_every": dict(publish_every=1, registry_dir=registry),
        "registry_dir": dict(registry_dir=registry),
        "serve_codec": dict(serve_codec="quantize8", registry_dir=registry),
        # inert / fold rules, each of which holds in the default context
        "codec": dict(codec="delta"),
        "drop_stragglers": dict(drop_stragglers=True),
        "buffer_size": dict(buffer_size=7),
        "staleness_decay": dict(staleness_decay=2.0),
        "sim_time_limit": dict(sim_time_limit=9.0),
        "faults": dict(faults=FaultSpec(crash_fraction=0.25)),
        "retries": dict(retries=0),
        "retry_backoff": dict(retry_backoff=3.0),
        "virtual_clients": dict(virtual_clients=True),
        "tree_fanout": dict(tree_fanout=5),
    }


LABELLED = [
    field.name
    for field in FIELDS
    if field.metadata["effect"] != CHANGES_RESULTS
    or field.metadata["inert"]
    or field.metadata["fold"]
]


class TestEffectLabels:
    @pytest.fixture
    def base(self, tiny_federated_config):
        return replace(tiny_federated_config, rounds_per_task=2)

    @pytest.mark.parametrize("name", LABELLED)
    def test_labelled_knob_does_not_change_the_trained_bits(
        self, name, tiny_spec, tiny_backbone_config, base, tmp_path
    ):
        overrides = _toggles(tmp_path).get(name)
        assert overrides is not None, (
            f"{name} is declared exact / observational / conditionally inert; "
            "give it a toggle value here so the claim is run"
        )
        assert overrides[name] != getattr(base, name)
        toggled = replace(base, **overrides)
        # The toggle sits where the declaration says it cannot matter ...
        assert toggled.canonical() == base.canonical()
        # ... and it does not.
        assert _state_hash(tiny_spec, tiny_backbone_config, toggled) == _state_hash(
            tiny_spec, tiny_backbone_config, base
        )

    def test_serial_checkpoint_resumes_under_the_parallel_executor(
        self, tiny_spec, tiny_backbone_config, base, tmp_path
    ):
        base_hash = _state_hash(tiny_spec, tiny_backbone_config, base)
        full_dir, resume_dir = tmp_path / "full", tmp_path / "resume"
        written = replace(base, checkpoint_every=1, checkpoint_dir=str(full_dir))
        assert _state_hash(tiny_spec, tiny_backbone_config, written) == base_hash
        earliest = min(os.listdir(full_dir), key=parse_checkpoint_name)
        resume_dir.mkdir()
        shutil.copy(full_dir / earliest, resume_dir / earliest)
        relaunched = replace(
            written, checkpoint_dir=str(resume_dir), resume=True, executor="parallel", num_workers=2
        )
        resumed = _run(tiny_spec, tiny_backbone_config, relaunched)
        assert resumed._resumed_from is not None
        assert simulation_state_hash(resumed) == base_hash


def _fingerprint_with_kernel_knob(config) -> str:
    """``config.fingerprint()`` as computed while ``kernel`` was still a knob
    (declared after ``dtype``, default ``"eager"``)."""
    parts = []
    for spec in dataclasses.fields(config):
        if spec.metadata["effect"] == CHANGES_RESULTS:
            parts.append((spec.name, repr(getattr(config, spec.name))))
        if spec.name == "dtype":
            parts.append(("kernel", repr("eager")))
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def test_checkpoint_written_while_kernel_was_a_knob_refuses_to_resume(
    tiny_spec, tiny_backbone_config, tiny_federated_config, tmp_path
):
    # FederatedConfig().fingerprint() at 93ae68d, the last commit with the knob
    # (float64 was the default then).
    assert _fingerprint_with_kernel_knob(FederatedConfig(dtype="float64")) == (
        "789c9016f4d27636ab32fe2ff6eff50d10e2d362af4aa8d007a641d23b22c6a2"
    )
    config = replace(
        tiny_federated_config, rounds_per_task=1, checkpoint_every=1, checkpoint_dir=str(tmp_path)
    )
    _run(tiny_spec, tiny_backbone_config, config)
    for name in os.listdir(tmp_path):
        payload = load_checkpoint(str(tmp_path / name))
        payload["fingerprint"] = _fingerprint_with_kernel_knob(config)
        save_checkpoint(str(tmp_path / name), payload)
    # The typed refusal, not a KeyError / TypeError from inside the loader.
    with pytest.raises(CheckpointMismatchError):
        _run(tiny_spec, tiny_backbone_config, replace(config, resume=True))
