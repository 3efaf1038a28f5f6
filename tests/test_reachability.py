"""Every module-level function and class in ``src/repro`` is named by code that runs,
and every ``FederatedConfig`` knob, and every field of the config objects it
nests, is set by code that runs.

A definition that only tests name is a library nobody uses: it still costs a
test, a README row and a reader's time.  This test parses ``src/``,
``benchmarks/`` and ``examples/`` and collects the names their code uses
(``Name`` and ``Attribute`` nodes; strings, comments and docstrings do not
count, and neither do ``__init__.py`` re-exports or a definition naming
itself).  A definition nobody names fails with its location: delete it, or,
when a test keeps it as the oracle for code that stays, add it to
``ALLOWED`` with the reason.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import pytest

from repro.federated.client import LocalTrainingConfig
from repro.federated.config import FederatedConfig
from repro.federated.faults import FaultSpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CODE_DIRS = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

#: Definitions no run reaches that stay anyway, each with its reason.
ALLOWED = {
    "autograd/grad_check.py:check_gradient": "the finite-difference oracle of every op's vjp",
    "baselines/registry.py:available_methods": "the registry's listing: the suite builds every method",
    "datasets/partition.py:partition_domain_across_clients": (
        "a trace hook target, and the eager oracle the lazy client partition is pinned to"
    ),
    "experiments/runner.py:clear_run_cache": "tests reset the run memo; goes with it (ROADMAP item 5)",
}


def _names_used(tree: ast.AST) -> Counter:
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def _code_files():
    for directory in CODE_DIRS:
        for path in sorted(directory.rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def _unnamed_definitions() -> list:
    used: Counter = Counter()
    definitions = []
    for path in _code_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(_names_used(tree))
        if PACKAGE in path.parents:
            definitions.extend(
                (path, node)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            )
    unnamed = []
    for path, node in definitions:
        if used[node.name] - _names_used(node)[node.name] <= 0:
            unnamed.append(f"{path.relative_to(PACKAGE).as_posix()}:{node.name}")
    return unnamed


def test_every_definition_is_named_by_code_that_runs():
    unnamed = [entry for entry in _unnamed_definitions() if entry not in ALLOWED]
    assert not unnamed, f"defined in src/repro but named only by tests: {unnamed}"


def test_the_allowlist_is_short_and_current():
    assert len(ALLOWED) <= 4
    stale = sorted(set(ALLOWED) - set(_unnamed_definitions()))
    assert not stale, f"allowed but named by code now, drop from ALLOWED: {stale}"


def _keywords_passed(exclude: Path) -> set:
    passed = set()
    for path in _code_files():
        if path == exclude:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg is not None:
                passed.add(node.arg)
    return passed


@pytest.mark.parametrize("config", [FederatedConfig, FaultSpec, LocalTrainingConfig])
def test_every_config_knob_is_passed_by_keyword_by_code_that_runs(config):
    """A knob that no run, benchmark or example sets is a constant with a
    README row: retire it (its value becomes a named constant) instead.
    The module that declares the config does not count."""
    passed = _keywords_passed(exclude=Path(inspect.getsourcefile(config)).resolve())
    unset = [spec.name for spec in dataclasses.fields(config) if spec.name not in passed]
    assert not unset, f"{config.__name__} fields no code outside tests passes: {unset}"
