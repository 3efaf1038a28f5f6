"""Spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` wraps callables (instance attributes, class attributes,
module-level names) so that every call records ``[name, start, end, parent,
run_id]`` in memory, takes counts at the same boundary, and can put every
original attribute back.  Nothing is written until the child exits
(:meth:`Tracer.dump`); the analysis helpers below turn the span list into
per-name self times and inclusive shares.
"""

from __future__ import annotations

import bisect
import importlib
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

_ABSENT = object()

# Span record layout (a mutable list, so ``end`` can be filled in on exit and
# the parent can be referenced by identity across threads).
NAME, START, END, PARENT, RUN_ID = range(5)


class Tracer:
    """Records spans for wrapped callables; one per benchmark process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.run_id = 0
        self.enabled = True
        self._local = threading.local()
        self._counts_lock = threading.Lock()  # serving threads count concurrently
        self._patches: List[Tuple[Any, str, Any]] = []
        # Forked pool workers inherit patched classes; they must run the
        # originals at full speed and never grow a span list nobody reads.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        record = [name, 0.0, None, stack[-1] if stack else None, self.run_id]
        self.spans.append(record)
        stack.append(record)
        record[START] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: Optional[str], fn, outermost: bool = False, count=None):
        """``fn`` with a span around every call (pass-through when disabled).

        ``name=None`` takes the counts without recording a span."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if name is None:  # count-only hook
                result = fn(*args, **kwargs)
                self._count(count(args, kwargs, result))
                return result
            if outermost:
                stack = self._stack()
                if stack and stack[-1][NAME] == name:
                    return fn(*args, **kwargs)
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
            if count is not None:
                self._count(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, increments: Dict[str, float]) -> None:
        with self._counts_lock:
            self.counts.update(increments)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _patch(self, root: Any, path: str, hook) -> bool:
        """Wrap ``root.<path>``; a target that is not there is recorded, not raised."""
        *parents, attr = path.split(".")
        owner = root
        for part in parents:
            owner = getattr(owner, part, _ABSENT)
        original = getattr(owner, attr, _ABSENT)
        if not callable(original):  # includes _ABSENT
            self.missing.append(hook.target)
            return False
        try:
            own = vars(owner).get(attr, _ABSENT)
        except TypeError:  # __slots__ instance: the attribute is its own slot
            own = original
        setattr(owner, attr, self.wrap(hook.span, original, hook.outermost, hook.count))
        self._patches.append((owner, attr, own))
        return True

    def patch_attr(self, root: Any, hook) -> bool:
        """Wrap ``root.<hook.target>`` (a dotted attribute path)."""
        return self._patch(root, hook.target, hook)

    def patch_path(self, hook) -> bool:
        """Wrap ``"package.module:attr.path"``."""
        module_name, _, path = hook.target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(hook.target)
            return False
        return self._patch(module, path, hook)

    def unpatch_all(self) -> None:
        """Put every wrapped attribute back exactly as it was found."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        index = {id(record): position for position, record in enumerate(self.spans)}
        payload = {
            "spans": [
                {
                    "name": record[NAME],
                    "start": record[START],
                    "end": record[END],
                    "parent": index.get(id(record[PARENT])),
                    "run_id": record[RUN_ID],
                }
                for record in self.spans
                if record[END] is not None
            ],
            "counts": dict(self.counts),
            "missing_hooks": list(self.missing),
        }
        payload.update(extra or {})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


@contextmanager
def region(tracer: Optional[Tracer], name: str):
    """A root span around a benchmark-side phase; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    record = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(record)


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #


def _closed(spans: Iterable[list]) -> List[list]:
    return [record for record in spans if record[END] is not None]


def self_times(spans: Sequence[list]) -> Dict[str, Tuple[float, int]]:
    """``{name: (summed self time, calls)}``.

    A span's self time is its duration minus the durations of its direct
    children (children never overlap: they ran on the parent's thread).
    """
    spans = _closed(spans)
    child_time: Dict[int, float] = {}
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            child_time[id(parent)] = child_time.get(id(parent), 0.0) + record[END] - record[START]
    totals: Dict[str, Tuple[float, int]] = {}
    for record in spans:
        own = record[END] - record[START] - child_time.get(id(record), 0.0)
        seconds, calls = totals.get(record[NAME], (0.0, 0))
        totals[record[NAME]] = (seconds + own, calls + 1)
    return totals


def inclusive_time(spans: Sequence[list], names: Iterable[str]) -> float:
    """Summed duration of the outermost spans whose name is in ``names``."""
    names = set(names)
    total = 0.0
    for record in _closed(spans):
        if record[NAME] not in names:
            continue
        ancestor = record[PARENT]
        while ancestor is not None and ancestor[NAME] not in names:
            ancestor = ancestor[PARENT]
        if ancestor is None:
            total += record[END] - record[START]
    return total


def within(spans: Sequence[list], root_name: str) -> List[list]:
    """The ``root_name`` spans plus every span that started inside one.

    Selection is by time, not by parent link, so spans recorded on other
    threads (the serving workers) land in the timed region they ran in.
    """
    spans = _closed(spans)
    roots = sorted(
        (record for record in spans if record[NAME] == root_name), key=lambda r: r[START]
    )
    starts = [record[START] for record in roots]
    selected = list(roots)
    for record in spans:
        if record[NAME] == root_name:
            continue
        position = bisect.bisect_right(starts, record[START]) - 1
        if position >= 0 and record[START] <= roots[position][END]:
            selected.append(record)
    return selected
