"""The inventory of ``pickle.dumps`` / ``pickle.loads`` call lines in ``src/``.

Pickle ties a file or a frame to today's class layout, and unpickling bytes
from the wire or the disk can execute code.  Retiring it is an open item of
the roadmap, so the inventory may only shrink: the pin below is exact, a new
call fails with its location, and a retired one fails until the pin is
lowered with it.  A model version has one serialization, its identity wire
frame, so ``nn/serialization.py`` holds none.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Call lines per module, relative to ``src/repro``.  ``execution.py``'s are
#: the worker pipes (method, dataset sizes and worker errors); the rest are the
#: frame envelope, the checkpoint container, and the checkpoint's method and
#: ledger.
PINNED_CALL_LINES = {
    "federated/checkpoint.py": 2,
    "federated/communication.py": 2,
    "federated/execution.py": 6,
    "federated/simulation.py": 4,
}


def _pickle_call_lines(path: Path) -> list:
    """Line numbers holding a ``pickle.dumps(...)`` or ``pickle.loads(...)`` call."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dumps", "loads")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "pickle"
        }
    )


def test_pickle_call_lines_match_the_pinned_inventory():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = _pickle_call_lines(path)
        if lines:
            found[path.relative_to(PACKAGE).as_posix()] = lines
    grown = [
        f"src/repro/{module}:{line}"
        for module, lines in found.items()
        if len(lines) > PINNED_CALL_LINES.get(module, 0)
        for line in lines
    ]
    assert not grown, f"pickle calls beyond the pinned inventory, in: {grown}"
    counts = {module: len(lines) for module, lines in found.items()}
    assert counts == PINNED_CALL_LINES, "a pickle call went: lower its module's pin"
