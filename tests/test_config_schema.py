"""Schema drift: ``FederatedConfig`` is declared in four places by hand.

The dataclass fields, the class docstring's Attributes section, the README
"Configuration knobs" table and ``scaled_config``'s keywords must name the
same knobs in the same order.  This is the cheap stand-in for deriving all
of them from one schema (ROADMAP item 3).
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.experiments.config import scaled_config
from repro.federated import FederatedConfig

README = Path(__file__).resolve().parents[1] / "README.md"

#: Fields ``scaled_config`` derives from the scale preset instead of taking
#: as a keyword of the same name.
STRUCTURAL = {
    "increment",
    "local",
    "rounds_per_task",
    "partition_concentration",
    "eval_batch_size",
}

RETIRED = ("plan_optimize", "shard_cache", "transport")


def _field_names():
    return [field.name for field in dataclasses.fields(FederatedConfig)]


def _docstring_attributes():
    doc = inspect.getdoc(FederatedConfig)
    attributes = doc.split("Attributes\n----------\n", 1)[1]
    return re.findall(r"^(\w+):$", attributes, flags=re.MULTILINE)


def _readme_knob_rows():
    section = README.read_text(encoding="utf-8").split("## Configuration knobs", 1)[1]
    table = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)


def test_knob_declarations_have_not_drifted():
    fields = _field_names()
    assert len(fields) == 36
    assert _docstring_attributes() == fields
    assert _readme_knob_rows() == fields

    parameters = inspect.signature(scaled_config).parameters
    assert len(parameters) == 37
    assert [n for n in fields if n not in STRUCTURAL and n not in parameters] == []
    assert not STRUCTURAL & set(parameters)


@pytest.mark.parametrize("name", RETIRED)
def test_retired_knobs_are_not_keywords(name):
    with pytest.raises(TypeError):
        FederatedConfig(**{name: True})
    with pytest.raises(TypeError):
        scaled_config("office_caltech", **{name: True})


@pytest.mark.parametrize("value", [0, -1])
def test_eval_batch_size_must_be_positive(value):
    with pytest.raises(ValueError, match="eval_batch_size"):
        FederatedConfig(eval_batch_size=value)
