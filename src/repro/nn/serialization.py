"""A no-copy, write-protected view of a state dict.

FedAvg aggregation, EWC snapshots and LwF teacher models all operate on the
flat name->array dictionaries produced by :meth:`repro.nn.Module.state_dict`;
:func:`readonly_state_view` is the form the server keeps its global state in,
safe to hand to every client of a round simultaneously.  How a model version
crosses a process or a file is the communication plane's business: it has one
serialization, its ``identity`` broadcast frame (see
:mod:`repro.federated.communication`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np


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


__all__ = ["readonly_state_view"]
