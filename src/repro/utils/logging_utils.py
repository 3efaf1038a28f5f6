"""Logging configuration shared by the examples and the experiment harness."""

from __future__ import annotations

import logging
import sys

_FORMAT = "%(asctime)s %(name)s %(levelname)s: %(message)s"


def get_logger(name: str) -> logging.Logger:
    """Return an ``INFO``-level logger that writes to stderr exactly once."""
    logger = logging.getLogger(name)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_FORMAT, datefmt="%H:%M:%S"))
        logger.addHandler(handler)
        logger.propagate = False
    logger.setLevel(logging.INFO)
    return logger


__all__ = ["get_logger"]
