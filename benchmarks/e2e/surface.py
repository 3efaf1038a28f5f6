"""The benchmark's whole contact surface with ``src/``.

Every symbol the harness imports from the program, every attribute of a
program object it reads, and every attribute it wraps for the traced pass is
named in this one file; ``workloads.py`` and the entry points only ever call
what is defined here.  Configurations are built through ``scaled_config(...)``
or keyword ``FederatedConfig(...)`` only, nothing the roadmap slates for
deletion is used (``plan_optimize``, ``shard_cache=False``,
``transport="direct"``, ``nn.functional_aliases``) and no ``_``-private
attribute is touched.

Workload *building blocks* are hard imports: if one of them disappears the
benchmark cannot run and should say so.  Trace *hook targets* are named by
dotted path and resolved when a traced unit starts: a target that no longer
exists is skipped and counted in ``trace.missing_hooks`` instead of crashing,
so a later refactor that cannot edit this directory is not pinned by it.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.autograd.tensor import Tensor, default_dtype, no_grad  # noqa: E402
from repro.baselines.registry import build_method  # noqa: E402
from repro.continual.scenario import DomainIncrementalScenario  # noqa: E402
from repro.datasets.registry import build_dataset, get_dataset_spec  # noqa: E402
from repro.experiments.config import ExperimentScale, scaled_config  # noqa: E402
from repro.federated.aggregation import build_reduce_backend  # noqa: E402
from repro.federated.checkpoint import simulation_state_hash  # noqa: E402
from repro.federated.client import ClientHandle, LocalTrainingConfig  # noqa: E402
from repro.federated.communication import ClientUpdate  # noqa: E402
from repro.federated.config import FederatedConfig  # noqa: E402
from repro.federated.faults import FaultSpec  # noqa: E402
from repro.federated.increment import ClientGroup, ClientIncrementConfig  # noqa: E402
from repro.federated.server import FederatedServer  # noqa: E402
from repro.federated.simulation import FederatedDomainIncrementalSimulation  # noqa: E402
from repro.federated.transport import build_transport  # noqa: E402
from repro.models.backbone import BackboneConfig  # noqa: E402
from repro.serving.engine import InferenceEngine  # noqa: E402
from repro.serving.registry import ModelRegistry  # noqa: E402
from repro.serving.service import ServingFrontEnd  # noqa: E402
from repro.utils.rng import spawn_rng  # noqa: E402

SCALES = {"tiny": ExperimentScale.TINY, "small": ExperimentScale.SMALL}

#: The federation's *structure* -- increment schedule, partition sizes, client
#: selection, device profiles, fault draws -- is seeded by this constant, not by
#: ``--seed``: with quantity-shift partitions the amount of work in a run
#: depends on which clients are drawn, and a benchmark seed that changed it
#: would make the spread across seeds measure the draw instead of the machine.
#: ``--seed`` drives the *content*: generated images, model initialisation and
#: every benchmark-side generator.
STRUCTURE_SEED = 0


# --------------------------------------------------------------------------- #
# Trace hooks: what the traced pass wraps, and the span each wrap records
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Hook:
    """One wrapped call site: ``target`` is wrapped to record a ``span``.

    ``outermost`` records a span only when the same span is not already open
    on the thread (nested ``Module.__call__``s collapse into their top-level
    call).  ``count`` maps ``(args, kwargs, result)`` of one call to counter
    increments taken at the same boundary.
    """

    span: Optional[str]
    target: str
    outermost: bool = False
    count: Optional[Callable[[tuple, dict, Any], Dict[str, float]]] = None


def _count_local_update(args, kwargs, update) -> Dict[str, float]:
    client = kwargs.get("client", args[-1] if args else None)
    epochs = client.training.local_epochs if client is not None else 1
    return {"method.samples": float(update.num_samples * epochs)}


def _count_predict(args, kwargs, logits) -> Dict[str, float]:
    return {"continual.predict_samples": float(logits.shape[0])}


def _count_plan_lookup(args, kwargs, plan) -> Dict[str, float]:
    return {"autograd.plan_misses" if plan is None else "autograd.plan_hits": 1.0}


def _count_registry_load(args, kwargs, loaded) -> Dict[str, float]:
    return {"registry.bytes": float(loaded.info.num_bytes)}


#: Module- and class-level targets, ``"package.module:attr.path"``.  Functions
#: imported by name are wrapped in the namespace of the module that calls them.
STATIC_HOOKS: Tuple[Hook, ...] = (
    Hook("autograd.backward", "repro.autograd.tensor:Tensor.backward"),
    Hook("nn.optim_step", "repro.nn.optim:SGD.step"),
    Hook("autograd.forward", "repro.nn.module:Module.__call__", outermost=True),
    Hook(None, "repro.autograd.tape:PlanCache.get", count=_count_plan_lookup),
    Hook("communication.encode", "repro.federated.transport:encode_frame"),
    Hook("communication.decode", "repro.federated.transport:decode_frame"),
    Hook("communication.encode", "repro.federated.aggregation:encode_frame"),
    Hook("communication.decode", "repro.federated.aggregation:decode_frame"),
    Hook("clustering.finch", "repro.core.clustering:finch"),
    Hook("datasets.synth", "repro.datasets.synthetic:generate_domain_split"),
    Hook("datasets.partition", "repro.federated.simulation:partition_domain_across_clients"),
    Hook("datasets.partition", "repro.federated.virtual:partition_indices_for_clients"),
    Hook("sampling.select", "repro.federated.simulation:sample_clients"),
    Hook("sampling.select", "repro.federated.simulation:sample_clients_lazy"),
    Hook("sampling.select", "repro.federated.async_plane:sample_clients"),
    Hook("sampling.select", "repro.federated.async_plane:sample_clients_lazy"),
    Hook("virtual.materialize", "repro.federated.virtual:VirtualClientPlane.materialize"),
    Hook("async_plane", "repro.federated.async_plane:TemporalPlaneRunner.run_task"),
    Hook("checkpoint.save", "repro.federated.simulation:save_checkpoint"),
)

#: Attribute paths on the method's *class* (the method object is pickled for
#: worker processes and checkpoints, so it must not carry closures itself).
METHOD_HOOKS: Tuple[Hook, ...] = (
    Hook("method.local_update", "local_update", count=_count_local_update),
    Hook("method.aggregate", "aggregate"),
    Hook("method.hooks", "on_task_start"),
    Hook("method.hooks", "on_task_end"),
    Hook("method.hooks", "on_round_start"),
)

#: Attribute paths on a built simulation instance.
SIMULATION_HOOKS: Tuple[Hook, ...] = (
    Hook("simulation.run_task", "run_task"),
    Hook("transport.broadcast", "transport.broadcast_round"),
    Hook("transport.uplink", "transport.collect_updates"),
    Hook("execution", "executor.run_round"),
    Hook("execution", "executor.run_client"),
    Hook("continual.eval", "evaluator.evaluate_seen"),
    Hook("continual.eval", "evaluator.evaluate_after_task"),
    Hook("aggregation.reduce", "server.reduce_backend.reduce"),
)

#: The evaluator's inference hook; wrapped only under the serial eval backend
#: (the parallel one insists on the method's own bound ``predict_logits``).
PREDICT_HOOK = Hook("continual.predict", "evaluator.predict_fn", count=_count_predict)

#: Attribute paths on the server-path workload's parts (no simulation there).
TRANSPORT_HOOKS: Tuple[Hook, ...] = (
    Hook("transport.broadcast", "broadcast_round"),
    Hook("transport.uplink", "collect_updates"),
)
REDUCE_HOOK = Hook("aggregation.reduce", "reduce")

REGISTRY_HOOKS: Tuple[Hook, ...] = (
    Hook("registry.publish", "publish"),
    Hook("registry.load", "load", count=_count_registry_load),
)
ENGINE_HOOKS: Tuple[Hook, ...] = (
    Hook("engine.install", "install"),
    Hook("engine.predict", "predict"),
)


def install_static_hooks(tracer) -> None:
    for hook in STATIC_HOOKS:
        tracer.patch_path(hook)


def install_method_hooks(tracer, method) -> None:
    for hook in METHOD_HOOKS:
        tracer.patch_attr(type(method), hook)


def install_simulation_hooks(tracer, sim) -> None:
    install_static_hooks(tracer)
    install_method_hooks(tracer, sim.method)
    for hook in SIMULATION_HOOKS:
        tracer.patch_attr(sim, hook)
    if sim.eval_executor is None:
        tracer.patch_attr(sim, PREDICT_HOOK)


# --------------------------------------------------------------------------- #
# Whole-run workloads: build one simulation, run it, read what it published
# --------------------------------------------------------------------------- #


def _assemble(dataset_name, spec, backbone, federated, num_tasks, method_name):
    dataset = build_dataset(dataset_name, spec_override=spec)
    scenario = DomainIncrementalScenario(dataset, num_tasks=num_tasks)
    method = build_method(method_name, backbone=backbone, num_tasks=scenario.num_tasks)
    return FederatedDomainIncrementalSimulation(scenario, method, federated)


def _seeded_content(spec, backbone, seed: int):
    """The dataset spec and backbone with their content seeds moved by ``seed``."""
    return replace(spec, seed=spec.seed + seed), replace(backbone, seed=seed)


def build_scaled_simulation(dataset_name: str, scale: str, method_name: str, seed: int, **knobs):
    """A simulation from ``scaled_config(dataset, scale, **knobs)``."""
    config = scaled_config(dataset_name, SCALES[scale], seed=STRUCTURE_SEED, **knobs)
    spec, backbone = _seeded_content(config.spec, config.backbone, seed)
    return _assemble(dataset_name, spec, backbone, config.federated, config.num_tasks, method_name)


def build_custom_simulation(
    dataset_name: str,
    method_name: str,
    seed: int,
    *,
    train_per_domain: int,
    test_per_domain: int,
    num_classes: int,
    base_width: int,
    embed_dim: int,
    num_tasks: int,
    initial_clients: int,
    increment_per_task: int,
    local_epochs: int,
    learning_rate: float,
    **federated_knobs,
):
    """A simulation whose sizes ``scaled_config`` cannot express."""
    base = get_dataset_spec(dataset_name)
    spec = base.scaled(
        train_per_domain=train_per_domain,
        test_per_domain=test_per_domain,
        num_classes=min(base.num_classes, num_classes),
    )
    backbone = BackboneConfig(
        image_size=spec.image_size,
        num_classes=spec.num_classes,
        base_width=base_width,
        embed_dim=embed_dim,
    )
    spec, backbone = _seeded_content(spec, backbone, seed)
    federated = FederatedConfig(
        increment=ClientIncrementConfig(
            initial_clients=initial_clients,
            increment_per_task=increment_per_task,
            transfer_fraction=0.8,
            seed=STRUCTURE_SEED,
        ),
        local=LocalTrainingConfig(
            local_epochs=local_epochs, batch_size=16, learning_rate=learning_rate
        ),
        seed=STRUCTURE_SEED,
        **federated_knobs,
    )
    return _assemble(dataset_name, spec, backbone, federated, num_tasks, method_name)


def _jittered(state: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    """``state`` with every float tensor nudged, so derived copies are distinct."""
    return {
        key: value + 1e-3 * rng.standard_normal(np.shape(value))
        if np.asarray(value).dtype.kind == "f"
        else value
        for key, value in state.items()
    }


def _digest(values: Sequence[Any]) -> str:
    return hashlib.sha256(repr(list(values)).encode("utf-8")).hexdigest()[:16]


def _ledger_facts(ledger) -> Dict[str, Any]:
    """Totals the ledger publishes, checked against its own frame records."""
    delivered = ("ok", "deferred")
    frame_upload = sum(
        f.num_bytes for r in ledger.records for f in r.upload_frames if f.status in delivered
    )
    frame_broadcast = sum(f.num_bytes for r in ledger.records for f in r.broadcast_frames)
    return {
        "ops": sum(
            1 for r in ledger.records for f in r.upload_frames if f.status in delivered
        ),
        "wire_bytes": ledger.total_bytes,
        "ledger_consistent": bool(
            ledger.measured
            and ledger.uploaded_bytes == frame_upload
            and ledger.broadcast_bytes == frame_broadcast
            and ledger.rounds == len(ledger.records)
            and ledger.total_bytes == frame_upload + frame_broadcast + ledger.edge_bytes
        ),
        "counters": {
            "transport.frames": sum(
                len(r.broadcast_frames) + len(r.upload_frames) for r in ledger.records
            ),
            "transport.broadcast_bytes": ledger.broadcast_bytes,
            "transport.upload_bytes": ledger.uploaded_bytes,
            "transport.retry_frames": ledger.lost_frames + ledger.corrupt_frames,
            "transport.dropped_uploads": ledger.dropped_uploads + ledger.expired_uploads,
            "aggregation.edge_frames": ledger.edge_frames,
            "aggregation.edge_bytes": ledger.edge_bytes,
        },
    }


def _first_task_ce(sim, result) -> Tuple[float, float]:
    """Mean client cross-entropy in the first and the last round of task 0."""
    components = result.round_loss_components[: sim.config.rounds_per_task]
    values = [entry.get("loss_ce", float("nan")) for entry in components] or [float("nan")]
    return float(values[0]), float(values[-1])


def run_simulation(sim):
    """``sim.run()`` and nothing else: this is the timed call."""
    return sim.run()


def simulation_facts(sim, result) -> Dict[str, Any]:
    """Everything the checks and counters need from a finished run (untimed)."""
    facts = _ledger_facts(result.communication)
    losses = [float(value) for value in result.round_losses]
    facts.update(
        state_hash=simulation_state_hash(sim),
        losses_digest=_digest(losses),
        losses_finite=bool(losses) and bool(np.all(np.isfinite(losses))),
        average_accuracy=float(result.metrics.average),
        first_task_ce=_first_task_ce(sim, result),
        events_digest=_digest(
            [sorted((k, repr(v)) for k, v in event.items()) for event in result.event_log]
        ),
        checkpoints_written=int(result.fault_stats.get("checkpoints_written", 0)),
        round_evals=len(result.round_eval_history),
    )
    counters = facts["counters"]
    counters["async_plane.events"] = len(result.event_log)
    counters["clock.sim_time_s"] = float(result.sim_time)
    for key in ("client_crashes", "frames_lost", "frames_corrupted"):
        counters[f"faults.{key}"] = result.fault_stats.get(key, 0)
    counters["checkpoint.count"] = facts["checkpoints_written"]
    checkpoint_dir = sim.config.checkpoint_dir
    counters["checkpoint.bytes"] = (
        sum(entry.stat().st_size for entry in os.scandir(checkpoint_dir) if entry.is_file())
        if checkpoint_dir
        else 0
    )
    ipc_log = getattr(sim.executor, "ipc_log", None)
    if ipc_log is not None:
        counters["execution.ipc_bytes"] = sum(
            r.method_bytes + r.broadcast_bytes + r.shard_bytes for r in ipc_log
        ) + sum(
            r.method_bytes + r.broadcast_bytes + r.shard_bytes
            for r in getattr(sim.executor, "eval_ipc_log", ())
        )
        counters["execution.respawns"] = getattr(sim.executor, "respawns", 0)
    return facts


# --------------------------------------------------------------------------- #
# server_fanin: the server path alone, fed by benchmark-side client updates
# --------------------------------------------------------------------------- #


@dataclass
class ServerRig:
    method: Any
    server: Any
    transport: Any
    seeds: List[Any]  # real ClientUpdates the per-round cohorts are derived from
    rng: np.random.Generator
    round_index: int = 0


def build_server_rig(seed: int, *, scale: str, seed_updates: int, codec: str, fanout: int) -> ServerRig:
    """RefFiL method + server + loopback transport + tree reduce, and a few
    real local updates whose perturbations stand in for a large cohort."""
    config = scaled_config("office_caltech", SCALES[scale], seed=STRUCTURE_SEED)
    spec, backbone = _seeded_content(config.spec, config.backbone, seed)
    dataset = build_dataset("office_caltech", spec_override=spec)
    scenario = DomainIncrementalScenario(dataset, num_tasks=1)
    method = build_method("refil", backbone=backbone, num_tasks=1)
    model = method.build_model()
    server = FederatedServer(model)
    server.reduce_backend = build_reduce_backend("tree", fanout=fanout, ledger=server.ledger)
    server.ledger_autorecord = False
    transport = build_transport(
        "loopback",
        codec,
        ledger=server.ledger,
        payload_codec=method.payload_codec(),
        seed=STRUCTURE_SEED,
    )
    train = scenario.task(0).train
    shard = len(train) // seed_updates
    updates = []
    method.on_task_start(0, server)
    for client_id in range(seed_updates):
        handle = ClientHandle(
            client_id=client_id,
            task_id=0,
            group=ClientGroup.NEW,
            dataset=train.subset(np.arange(client_id * shard, (client_id + 1) * shard)),
            rng=spawn_rng(STRUCTURE_SEED, "bench-client", client_id),
            training=config.federated.local,
            domains_held=(0,),
        )
        model.load_state_dict(server.global_state)
        updates.append(method.local_update(model, server.global_state, {}, handle))
    return ServerRig(
        method=method,
        server=server,
        transport=transport,
        seeds=updates,
        rng=np.random.default_rng([seed, 0xFA41]),
    )


def derive_cohort(rig: ServerRig, size: int) -> List[Any]:
    """``size`` distinct updates: seeded perturbations of the real ones."""
    cohort = []
    for client_id in range(size):
        base = rig.seeds[client_id % len(rig.seeds)]
        cohort.append(
            ClientUpdate(
                client_id=client_id,
                state_dict=_jittered(base.state_dict, rig.rng),
                num_samples=int(rig.rng.integers(8, 64)),
                payload={"prompt_groups": _jittered(base.payload["prompt_groups"], rig.rng)},
                train_loss=base.train_loss,
                metrics=dict(base.metrics),
            )
        )
    return cohort


def server_round(rig: ServerRig, cohort: List[Any]) -> List[Any]:
    """One closed-loop server round; returns the uploads as aggregation saw them."""
    index = rig.round_index
    rig.round_index += 1
    rig.method.on_round_start(0, index, rig.server)
    rig.transport.broadcast_round(rig.server, [u.client_id for u in cohort], 0, index)
    delivered = rig.transport.collect_updates(cohort)
    rig.method.aggregate(rig.server, delivered)
    return delivered


def server_state_error(rig: ServerRig, delivered: List[Any]) -> float:
    """Largest gap between the server's state and a NumPy weighted mean of ``delivered``."""
    weights = np.asarray([u.num_samples for u in delivered], dtype=np.float64)
    weights = weights / weights.sum()
    worst = 0.0
    for key, value in rig.server.global_state.items():
        expected = sum(w * np.asarray(u.state_dict[key], dtype=np.float64) for w, u in zip(weights, delivered))
        worst = max(worst, float(np.max(np.abs(np.asarray(value, dtype=np.float64) - expected))))
    return worst


def server_rig_facts(rig: ServerRig) -> Dict[str, Any]:
    facts = _ledger_facts(rig.server.ledger)
    facts["state_hash"] = _digest(
        [(key, np.asarray(value).tobytes()) for key, value in sorted(rig.server.global_state.items())]
    )
    return facts


def install_server_rig_hooks(tracer, rig: ServerRig) -> None:
    install_static_hooks(tracer)
    install_method_hooks(tracer, rig.method)
    for hook in TRANSPORT_HOOKS:
        tracer.patch_attr(rig.transport, hook)
    tracer.patch_attr(rig.server.reduce_backend, REDUCE_HOOK)


# --------------------------------------------------------------------------- #
# serve_closed_loop: registry -> engine -> front end
# --------------------------------------------------------------------------- #


@dataclass
class ServingRig:
    method: Any
    registry: Any
    engine: Any
    frontend: Any
    versions: List[int]
    version_bytes: Dict[int, int]


def new_serving_parts(seed: int, directory: str, *, scale: str):
    """The method and an empty registry (split from publishing so the traced
    pass can wrap ``registry.publish`` before the set-up publishes)."""
    config = scaled_config("office_caltech", SCALES[scale], seed=STRUCTURE_SEED)
    spec, backbone = _seeded_content(config.spec, config.backbone, seed)
    method = build_method("refil", backbone=backbone, num_tasks=config.num_tasks)
    return method, ModelRegistry(directory), spec


def publish_versions(method, registry, seed: int, count: int) -> Dict[int, int]:
    """Publish ``count`` distinct versions; returns ``{version: file bytes}``."""
    rng = np.random.default_rng([seed, 0x5E47])
    state = method.build_model().state_dict()
    sizes = {}
    for index in range(count):
        info = registry.publish(
            name=method.name,
            state=_jittered(state, rng),
            payload=None,
            payload_codec=method.payload_codec(),
            task_id=0,
            round_index=index,
        )
        sizes[info.version] = info.num_bytes
    return sizes


def start_serving(method, registry, version_bytes, *, kernel: str, max_batch: int, workers: int) -> ServingRig:
    engine = InferenceEngine(registry, method, kernel=kernel)
    frontend = ServingFrontEnd(engine, max_queue=4096, max_batch=max_batch, num_workers=workers)
    return ServingRig(
        method=method,
        registry=registry,
        engine=engine,
        frontend=frontend,
        versions=sorted(version_bytes),
        version_bytes=dict(version_bytes),
    )


def request_samples(spec, seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x4E55])
    return rng.uniform(-1.0, 1.0, size=(count, spec.channels, spec.image_size, spec.image_size))


def serve_one(rig: ServingRig, sample: np.ndarray, timeout: float):
    """One closed-loop request; returns ``(version, logits)``."""
    response = rig.frontend.predict(sample, timeout=timeout)
    return response.version, response.logits


def hot_swap(rig: ServingRig, version: int) -> int:
    """``install`` + ``notify_publish``; returns the registry bytes the install read."""
    info = rig.engine.install(version)
    rig.frontend.notify_publish()
    return info.num_bytes


def direct_logits(rig: ServingRig, version: int, samples: np.ndarray) -> np.ndarray:
    """The evaluator's path: load the version by hand and predict eagerly."""
    loaded = rig.registry.load(version, rig.method.payload_codec())
    dtype = np.dtype(np.float64)
    for value in loaded.state.values():
        if np.asarray(value).dtype.kind == "f":
            dtype = np.asarray(value).dtype
            break
    with default_dtype(dtype):
        model = rig.method.build_model()
        model.load_state_dict(loaded.state)
    model.eval()
    with default_dtype(dtype), no_grad():
        return np.asarray(rig.method.predict_logits(model, Tensor(np.asarray(samples))).data)


def close_to_roundoff(served: np.ndarray, direct: np.ndarray) -> bool:
    return served.shape == direct.shape and bool(np.allclose(served, direct, rtol=1e-9, atol=1e-12))


def serving_facts(rig: ServingRig) -> Dict[str, Any]:
    telemetry = rig.frontend.telemetry()
    versions = telemetry["versions"].values()
    batches = sum(stats["batches"] for stats in versions)
    return {
        "answered": telemetry["total_requests"],
        "rejected": telemetry["rejected"],
        "counters": {
            "engine.swaps": telemetry["swap_count"],
            "service.rejected": telemetry["rejected"],
            "service.mean_batch_size": telemetry["total_requests"] / max(batches, 1),
        },
    }


def install_registry_hooks(tracer, registry) -> None:
    install_static_hooks(tracer)
    for hook in REGISTRY_HOOKS:
        tracer.patch_attr(registry, hook)


def install_engine_hooks(tracer, engine) -> None:
    for hook in ENGINE_HOOKS:
        tracer.patch_attr(engine, hook)
