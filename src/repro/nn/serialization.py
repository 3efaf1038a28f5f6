"""Saving / loading / comparing / shipping model state dictionaries.

FedAvg aggregation, EWC snapshots and LwF teacher models all operate on the
flat name->array dictionaries produced by :meth:`repro.nn.Module.state_dict`;
this module adds disk persistence (``.npz``), comparison helpers, and the
zero-redundant-copy broadcast primitives used by the round execution engine:

* :func:`readonly_state_view` — a no-copy, write-protected view of a state
  dict (the form the server keeps its global state in), safe to hand to
  every client of a round simultaneously;
* :func:`serialize_state` / :func:`deserialize_state` — a single pickle
  serialization of a state dict that worker processes can unpack, so a round
  pays one serialization instead of one deep copy per client.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Dict, Tuple, Union

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


def readonly_payload_view(payload: Any) -> Any:
    """Recursively wrap every array inside a broadcast payload in a read-only view.

    Same rationale as :func:`readonly_state_view`: one payload is shared by
    every client of a round, so in-place mutation must raise instead of
    silently leaking into the other clients (and diverging from the parallel
    executor, whose workers mutate a discarded copy).
    """
    if isinstance(payload, np.ndarray):
        view = payload.view()
        view.flags.writeable = False
        return view
    if isinstance(payload, dict):
        return {key: readonly_payload_view(value) for key, value in payload.items()}
    if isinstance(payload, tuple) and hasattr(payload, "_fields"):  # namedtuple
        return type(payload)(*(readonly_payload_view(value) for value in payload))
    if isinstance(payload, (list, tuple)):
        return type(payload)(readonly_payload_view(value) for value in payload)
    return payload


def serialize_state(state: Dict[str, np.ndarray], payload: Any = None) -> bytes:
    """Serialize a state dict (plus an optional payload) into one pickle blob."""
    return pickle.dumps((state, payload), protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_state(blob: bytes) -> Tuple[Dict[str, np.ndarray], Any]:
    """Inverse of :func:`serialize_state`."""
    state, payload = pickle.loads(blob)
    return state, payload


__all__ = [
    "save_state_dict",
    "load_state_dict",
    "state_dicts_allclose",
    "readonly_state_view",
    "readonly_payload_view",
    "serialize_state",
    "deserialize_state",
]
