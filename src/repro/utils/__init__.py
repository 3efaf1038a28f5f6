"""Cross-cutting utilities: seeding, lightweight logging and timing."""

from repro.utils.rng import spawn_rng
from repro.utils.logging_utils import get_logger
from repro.utils.timing import Timer

__all__ = ["spawn_rng", "get_logger", "Timer"]
