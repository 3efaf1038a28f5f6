"""The method interface implemented by RefFiL and by every baseline.

A :class:`FederatedMethod` encapsulates what differs between methods in the
federated domain-incremental loop: how the model is built, what the local
loss is, what extra payloads travel between clients and the server, how the
server post-processes aggregation, and how inference is performed during
evaluation.  The generic simulation
(:class:`repro.federated.simulation.FederatedDomainIncrementalSimulation`)
drives any implementation through the same Algorithm-1 skeleton so method
comparisons differ only in the method itself.

Picklability contract
---------------------
The round execution engine (:mod:`repro.federated.execution`) may run
:meth:`FederatedMethod.local_update` inside worker *processes*.  For that to
work — and for the server's broadcast to stay a pure function of its state —
implementations must satisfy five rules:

1. **The method object must be picklable.**  Everything reachable from
   ``self`` — configs, prompt stores, teacher models, Fisher matrices — must
   survive ``pickle.dumps``.  In particular, do not store lambdas, open
   files, or generators-of-generators on the method.  Leaf
   :class:`~repro.nn.module.Parameter` tensors pickle fine; tensors carrying
   a live autograd graph (non-``None`` ``_backward``) do not, so ``detach()``
   anything you stash between rounds.
2. **``local_update`` must not rely on in-place mutation of ``self`` for
   cross-round state.**  Workers operate on a pickled *copy* of the method;
   mutations die with the worker.  Per-client state that must persist across
   rounds (e.g. RefFiL's static ablation prompts) is round-tripped through
   :meth:`export_client_state` / :meth:`import_client_state` instead.
3. **``local_update`` must treat ``global_state`` as read-only.**  The server
   broadcasts one shared, write-protected view per round; mutating it would
   corrupt every other client's view.  Copy before writing.
4. **Server state is replaced, never mutated in place.**  A hook changes
   ``server.global_state`` or ``server.broadcast_payload`` by assigning a new
   mapping (or through ``server.aggregate``, which assigns) and leaves the
   arrays it assigned alone afterwards; the server stores write-protected
   views, so an in-place write through them raises ``ValueError``.  Each assignment retires the cached broadcast, so the next
   round, dispatch or evaluation sees the new state without anyone asking
   for it.  Item assignment on the mappings (``server.global_state[k] = v``)
   bypasses that and is outside the contract.
5. **What ``predict_logits`` reads beyond the model changes only with a
   rule-4 assignment.**  The evaluator scores each broadcast handle once per
   seen-task set and reuses the accuracies while the handle stands (the
   after-task evaluation after a final-round ``eval_every`` snapshot costs no
   forward pass), so method state that inference reads may only change in a
   hook that also assigns server state.  RefFiL's prompt store, which its
   CDAP-free inference averages, is replaced only in its ``aggregate``,
   which then assigns ``broadcast_payload``.

Server-side hooks (``on_task_start``, ``aggregate``, ...) always run in the
main process on the live method object; within rules 4 and 5 they are
unrestricted.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.federated.aggregation import blend_states
from repro.federated.client import ClientHandle
from repro.federated.communication import ClientUpdate, PayloadCodec, TreePayloadCodec
from repro.federated.server import FederatedServer
from repro.nn.module import Module


class FederatedMethod:
    """Abstract strategy object; subclasses implement the method-specific hooks."""

    #: Human-readable name used in result tables.
    name: str = "abstract"

    def build_model(self) -> Module:
        """Construct the (client/global) model architecture."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Lifecycle hooks (default: no-ops)
    # ------------------------------------------------------------------ #
    def on_task_start(self, task_id: int, server: FederatedServer) -> None:
        """Called once when a new incremental task begins (before any round)."""

    def on_task_end(self, task_id: int, server: FederatedServer) -> None:
        """Called once after the final round of a task (before evaluation)."""

    def on_round_start(self, task_id: int, round_index: int, server: FederatedServer) -> None:
        """Called at the start of every communication round."""

    # ------------------------------------------------------------------ #
    # Core hooks
    # ------------------------------------------------------------------ #
    def local_update(
        self,
        model: Module,
        global_state: Dict[str, np.ndarray],
        broadcast_payload: Dict[str, Any],
        client: ClientHandle,
    ) -> ClientUpdate:
        """Run one client's local training and return its update.

        May execute in a worker process on a pickled copy of the method; see
        the module docstring for the picklability contract.
        """
        raise NotImplementedError

    def aggregate(self, server: FederatedServer, updates: List[ClientUpdate]) -> None:
        """Aggregate client updates into the server (default: plain FedAvg).

        The temporal plane's buffered mode calls this inside a
        ``server.aggregation_scale(...)`` scope, so overrides that delegate
        model aggregation to ``server.aggregate`` (all of them do) are
        staleness-weighted for free.
        """
        server.aggregate(updates)

    def apply_async_update(
        self, server: FederatedServer, update: ClientUpdate, mixing: float
    ) -> None:
        """Apply one asynchronous arrival (FedAsync: ``x <- (1-m) x + m x_k``).

        ``mixing`` is the staleness-discounted mixing rate in ``(0, 1]``.  The
        default blends the arriving state into the current global state
        (:func:`repro.federated.aggregation.blend_states`) and then runs the
        method's own :meth:`aggregate` hook on the *blended* single-update
        round — a single-update FedAvg is the identity on the model state, so
        the blend survives exactly, while any payload machinery an override
        wraps around ``server.aggregate`` (RefFiL's prompt clustering,
        FedEWC's Fisher merge) still sees the arrival.
        """
        blended_state = blend_states(server.global_state, update.state_dict, mixing)
        self.aggregate(server, [replace(update, state_dict=blended_state)])

    def predict_logits(self, model: Module, images: Tensor) -> Tensor:
        """Inference path used by the evaluator (default: call the model directly)."""
        return model(images)

    def load_broadcast_payload(self, payload: Dict[str, Any]) -> None:
        """Take what :meth:`predict_logits` reads beyond the model from a broadcast
        payload (default: nothing).  The serving engine calls it on its frozen
        copy of the method with the installed version's own payload."""

    def payload_codec(self) -> PayloadCodec:
        """How this method's payloads become named wire arrays.

        The communication plane flattens broadcast and upload payloads into
        flat ``name -> ndarray`` dicts so the configured wire codec applies
        to them exactly as it does to model weights.  The default generic
        tree walk handles any picklable payload, and every method here uses
        it: one that builds its payload as a few stacked arrays (RefFiL's
        prompt groups and store) already costs one table row per array.  An
        override must keep ``unflatten(flatten(p))`` reproducing ``p``
        exactly — the lossless-parity guarantee of
        ``codec="identity"``/``"delta"`` rests on it.
        """
        return TreePayloadCodec()

    # ------------------------------------------------------------------ #
    # Cross-process client-state round-trip (default: stateless)
    # ------------------------------------------------------------------ #
    def export_client_state(self, client_id: int) -> Optional[Any]:
        """Picklable per-client state produced by ``local_update``, if any.

        Called right after :meth:`local_update` — in the worker process when
        a parallel executor is active — so that per-client state mutated
        during the update (which would otherwise die with the worker) can be
        shipped back.  Return ``None`` (the default) when the method keeps no
        such state.
        """
        return None

    def import_client_state(self, client_id: int, state: Any) -> None:
        """Merge state exported by :meth:`export_client_state` into the live method.

        Called in the main process with each non-``None`` export, in client
        selection order, after the round's local updates complete.
        """


__all__ = ["FederatedMethod"]
