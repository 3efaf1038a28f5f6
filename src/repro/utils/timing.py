"""Wall-clock timing helper used by the experiment harness and benches."""

from __future__ import annotations

import time
from typing import Dict, Optional


class Timer:
    """Accumulates named wall-clock intervals.

    Example
    -------
    >>> timer = Timer()
    >>> with timer.measure("local_training"):
    ...     pass
    >>> timer.total("local_training") >= 0.0
    True
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def measure(self, name: str) -> "_TimerContext":
        return _TimerContext(self, name)

    def record(self, name: str, elapsed: float) -> None:
        self._totals[name] = self._totals.get(name, 0.0) + elapsed
        self._counts[name] = self._counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)


class _TimerContext:
    def __init__(self, timer: Timer, name: str) -> None:
        self._timer = timer
        self._name = name
        self._start: Optional[float] = None

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self._timer.record(self._name, time.perf_counter() - self._start)


__all__ = ["Timer"]
