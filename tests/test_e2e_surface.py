"""The end-to-end benchmark's trace hooks still name real program objects.

``benchmarks/e2e/surface.py`` names its static trace-hook targets by dotted
path; a traced run skips a target that no longer resolves and only counts it
in ``trace.missing_hooks``.  This catches a moved or renamed target without
running a workload.  The benchmark directory is only read: the module is
loaded without writing bytecode next to it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SURFACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "surface.py"


def _load_surface():
    spec = importlib.util.spec_from_file_location("e2e_surface", SURFACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    previous = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    value = importlib.import_module(module_name)
    for attr in path.split("."):
        value = getattr(value, attr)
    return value


def test_every_static_hook_target_resolves_to_a_callable():
    hooks = _load_surface().STATIC_HOOKS
    assert hooks
    for hook in hooks:
        assert callable(_resolve(hook.target)), hook.target
