"""Saving / loading / comparing model state dictionaries.

FedAvg aggregation, EWC snapshots and LwF teacher models all operate on the
flat name->array dictionaries produced by :meth:`repro.nn.Module.state_dict`;
this module adds disk persistence (``.npz``), comparison helpers, and
:func:`readonly_state_view` — a no-copy, write-protected view of a state dict
(the form the server keeps its global state in), safe to hand to every client
of a round simultaneously.  How a model version crosses a process or a file
is the communication plane's business: it has one serialization, its
``identity`` broadcast frame (see :mod:`repro.federated.communication`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

import numpy as np

PathLike = Union[str, Path]


def save_state_dict(state: Dict[str, np.ndarray], path: PathLike) -> Path:
    """Persist a state dict to a compressed ``.npz`` file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **{key: np.asarray(value) for key, value in state.items()})
    return path


def load_state_dict(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a state dict previously written by :func:`save_state_dict`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key].copy() for key in data.files}


def state_dicts_allclose(
    left: Dict[str, np.ndarray],
    right: Dict[str, np.ndarray],
    atol: float = 1e-8,
) -> bool:
    """True when both state dicts have identical keys and numerically close values."""
    if set(left) != set(right):
        return False
    return all(np.allclose(left[key], right[key], atol=atol) for key in left)


def readonly_state_view(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Return a no-copy view of ``state`` whose arrays refuse writes.

    The views share memory with the originals, so broadcasting the global
    model to ``M`` clients costs zero array copies; any method that tries to
    mutate the broadcast state in place raises instead of silently corrupting
    the other clients' view of the round.
    """
    views: Dict[str, np.ndarray] = {}
    for key, value in state.items():
        view = np.asarray(value).view()
        view.flags.writeable = False
        views[key] = view
    return views


__all__ = [
    "save_state_dict",
    "load_state_dict",
    "state_dicts_allclose",
    "readonly_state_view",
]
