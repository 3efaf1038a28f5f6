"""The six workloads: what each builds, what it times, and what it checks.

A workload is measured in *units*.  One unit is a fresh set-up (timed as a
``setup_s`` sample) followed by one timed region (``run_s``) and the untimed
correctness checks on what the region produced.  ``run.py`` repeats units
until the ``--seconds`` budget is spent and reports medians over them, so
every unit of one invocation sees the same seed and must produce the same
bits -- that agreement is itself one of the checks.

Only ``surface.py`` touches the program; this file holds sizes and sequencing.
Sizes are chosen so that one unit costs 3-5 s on a 2-core box (three units in
a 14 s invocation) while keeping the layer shares each workload exists for.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import surface
from tracer import Tracer, region

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

Check = Tuple[str, bool, str]


def _scratch_dir(prefix: str) -> str:
    base = os.path.join(OUT_DIR, "tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


@dataclass
class Unit:
    """What one timed region hands back to the runner."""

    run_s: float
    ops: int  # operations completed (local updates / server rounds / requests)
    owed: int  # operations the program owed
    latencies_ms: Optional[List[float]] = None  # per-op, when the caller can see them


class Workload:
    name = "abstract"
    why = ""
    #: Units an invocation runs at least, whatever the budget says.
    min_units = 1

    def __init__(self, **sizes: Any) -> None:
        self.sizes = {**self.default_sizes, **sizes}

    default_sizes: Dict[str, Any] = {}
    #: Overrides for the harness's own smoke test (about a tenth of the work).
    reduced_sizes: Dict[str, Any] = {}

    @classmethod
    def reduced(cls) -> "Workload":
        return cls(**cls.reduced_sizes)

    def setup(self, seed: int, tracer: Optional[Tracer]) -> Any:
        raise NotImplementedError

    def run(self, ctx: Any, tracer: Optional[Tracer]) -> Unit:
        raise NotImplementedError

    def facts(self, ctx: Any, unit: Unit) -> Dict[str, Any]:
        """Untimed: ``wire_bytes``, ``fingerprint``, ``counters`` and ``checks``."""
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        pass


# --------------------------------------------------------------------------- #
# 1-4: one Simulation.run() per unit
# --------------------------------------------------------------------------- #


class _WholeRun(Workload):
    """Set-up builds dataset, scenario, method and simulation; the timed
    region is ``sim.run()`` and nothing else."""

    def build(self, seed: int, scratch: Optional[str]):
        raise NotImplementedError

    needs_scratch = False

    def setup(self, seed, tracer):
        scratch = _scratch_dir(self.name + "-") if self.needs_scratch else None
        sim = self.build(seed, scratch)
        if tracer is not None:
            surface.install_simulation_hooks(tracer, sim)
        return {"sim": sim, "scratch": scratch}

    def run(self, ctx, tracer):
        start = time.perf_counter()
        with region(tracer, "run"):
            ctx["result"] = surface.run_simulation(ctx["sim"])
        run_s = time.perf_counter() - start
        return Unit(run_s=run_s, ops=0, owed=0)

    def facts(self, ctx, unit):
        facts = surface.simulation_facts(ctx["sim"], ctx["result"])
        unit.ops = unit.owed = facts["ops"]
        facts["parity"] = (facts["state_hash"], facts["losses_digest"])
        facts["fingerprint"] = facts["parity"] + (facts["wire_bytes"],)
        facts["checks"] = [
            ("losses_finite", facts["losses_finite"], ""),
            ("ledger_matches_frames", facts["ledger_consistent"], ""),
            ("delivered_updates", facts["ops"] > 0, f"{facts['ops']} updates reached aggregation"),
        ] + self.extra_checks(facts)
        return facts

    def extra_checks(self, facts) -> List[Check]:
        return []

    def teardown(self, ctx):
        ctx["sim"].close()
        if ctx["scratch"]:
            shutil.rmtree(ctx["scratch"], ignore_errors=True)


class TrainRefFiL(_WholeRun):
    name = "train_reffil"
    why = (
        "RefFiL at small scale, serial and eager: the client step owns the run, "
        "so autograd/nn/core changes show here and communication changes must not"
    )
    #: ``scaled_config("office_caltech", SMALL)`` with the stream cut to two
    #: tasks and two clients a round so a unit is ~4 s, not ~17 s; tensor shapes
    #: and per-step cost are those of the full small-scale run.
    default_sizes = dict(scale="small", num_tasks=2, clients_per_round=2)
    reduced_sizes = dict(scale="tiny", num_tasks=2, clients_per_round=2)
    knobs: Dict[str, Any] = {}

    def build(self, seed, scratch):
        return surface.build_scaled_simulation(
            "office_caltech",
            self.sizes["scale"],
            "refil",
            seed,
            num_tasks=self.sizes["num_tasks"],
            clients_per_round=self.sizes["clients_per_round"],
            **self.knobs,
        )

    def extra_checks(self, facts):
        # A ~4 s run is too short for an accuracy floor to mean anything (the
        # full small-scale run reaches 71%, this cut 20-36% against 17% chance);
        # what a fixed number of steps does guarantee is that they learned.
        first, last = facts["first_task_ce"]
        return [
            (
                "first_task_loss_fell",
                last < first,
                f"cross-entropy {first:.3f} -> {last:.3f} over the first task's rounds",
            )
        ]


class TrainRefFiLPar2(TrainRefFiL):
    name = "train_reffil_par2"
    why = (
        "same inputs and seed behind the 2-worker pool and parallel eval: the "
        "state hash must equal train_reffil's, and a serial gain that costs "
        "the pool (or the reverse) moves one row against the other"
    )
    knobs = dict(executor="parallel", num_workers=2, eval_executor="parallel")

    def reference(self) -> TrainRefFiL:
        """The plain single-worker run whose bits this workload must reproduce."""
        return TrainRefFiL(**self.sizes)


class EvalStream(_WholeRun):
    name = "eval_stream"
    why = (
        "per-round accuracy curves on a six-domain stream: evaluation and the "
        "no_grad forward path hold most of the run, training a fifth of it"
    )
    default_sizes = dict(
        num_tasks=3, train_per_domain=48, test_per_domain=128, base_width=12, rounds_per_task=2
    )
    reduced_sizes = dict(
        num_tasks=2, train_per_domain=48, test_per_domain=32, base_width=8, rounds_per_task=1
    )

    def build(self, seed, scratch):
        sizes = self.sizes
        return surface.build_custom_simulation(
            "fed_domainnet",
            "refil",
            seed,
            train_per_domain=sizes["train_per_domain"],
            test_per_domain=sizes["test_per_domain"],
            num_classes=6,
            base_width=sizes["base_width"],
            embed_dim=32,
            num_tasks=sizes["num_tasks"],
            initial_clients=4,
            increment_per_task=1,
            local_epochs=1,
            learning_rate=0.08,
            clients_per_round=2,
            rounds_per_task=sizes["rounds_per_task"],
            eval_every=1,
        )

    def extra_checks(self, facts):
        expected = self.sizes["num_tasks"] * self.sizes["rounds_per_task"]
        return [
            (
                "round_evaluations",
                facts["round_evals"] == expected,
                f"{facts['round_evals']} of {expected} mid-task snapshots",
            )
        ]


class FleetBuffered(_WholeRun):
    name = "fleet_buffered"
    why = (
        "the only whole run through the event clock, lazy 100k-client sampling, "
        "fault retries, tree edge frames, quantize8 and checkpoints: code the "
        "sync default never runs, so sync-path changes leave it flat"
    )
    needs_scratch = True
    default_sizes = dict(num_tasks=5, clients_per_round=3, train_per_domain=96, population=100_000)
    reduced_sizes = dict(num_tasks=2, clients_per_round=2, train_per_domain=48, population=1_000)

    def build(self, seed, scratch):
        sizes = self.sizes
        return surface.build_custom_simulation(
            "digits_five",
            "finetune",
            seed,
            train_per_domain=sizes["train_per_domain"],
            test_per_domain=40,
            num_classes=4,
            base_width=8,
            embed_dim=32,
            num_tasks=sizes["num_tasks"],
            initial_clients=6,
            increment_per_task=1,
            local_epochs=1,
            learning_rate=0.08,
            clients_per_round=sizes["clients_per_round"],
            rounds_per_task=2,
            mode="buffered",
            buffer_size=4,
            device_profile="moderate",
            virtual_clients=True,
            population=sizes["population"],
            reduce_backend="tree",
            tree_fanout=2,
            codec="quantize8",
            faults=surface.FaultSpec(
                client_crash_rate=0.1, upload_loss_rate=0.1, upload_corruption_rate=0.05
            ),
            checkpoint_dir=scratch,
        )

    def facts(self, ctx, unit):
        facts = super().facts(ctx, unit)
        facts["fingerprint"] = facts["fingerprint"] + (facts["events_digest"],)
        return facts

    def extra_checks(self, facts):
        return [
            (
                "checkpoints_written",
                facts["checkpoints_written"] == self.sizes["num_tasks"],
                f"{facts['checkpoints_written']} of {self.sizes['num_tasks']}",
            )
        ]


# --------------------------------------------------------------------------- #
# 5: the server path alone
# --------------------------------------------------------------------------- #


class ServerFanIn(Workload):
    name = "server_fanin"
    why = (
        "no client compute in the timed region: transport, codecs, tree reduce "
        "and FINCH prompt clustering do all the work here and under 2% of "
        "train_reffil -- the server operator's view of cohort scaling"
    )
    #: Two units give the 100 round samples p90 needs.
    min_units = 2
    default_sizes = dict(scale="small", cohort=16, rounds=50, warmup=5, seed_updates=4, fanout=4)
    reduced_sizes = dict(scale="tiny", cohort=4, rounds=5, warmup=1, seed_updates=2, fanout=2)

    def setup(self, seed, tracer):
        sizes = self.sizes
        rig = surface.build_server_rig(
            seed,
            scale=sizes["scale"],
            seed_updates=sizes["seed_updates"],
            codec="quantize8",
            fanout=sizes["fanout"],
        )
        if tracer is not None:
            surface.install_server_rig_hooks(tracer, rig)
        for _ in range(sizes["warmup"]):
            surface.server_round(rig, surface.derive_cohort(rig, sizes["cohort"]))
        return {"rig": rig}

    def run(self, ctx, tracer):
        rig, sizes = ctx["rig"], self.sizes
        latencies: List[float] = []
        delivered = []
        for _ in range(sizes["rounds"]):
            cohort = surface.derive_cohort(rig, sizes["cohort"])  # benchmark-side, untimed
            start = time.perf_counter()
            with region(tracer, "run"):
                delivered = surface.server_round(rig, cohort)
            latencies.append((time.perf_counter() - start) * 1e3)
        ctx["delivered"] = delivered
        return Unit(
            run_s=sum(latencies) / 1e3,
            ops=len(latencies),
            owed=sizes["rounds"],
            latencies_ms=latencies,
        )

    def facts(self, ctx, unit):
        rig = ctx["rig"]
        facts = surface.server_rig_facts(rig)
        rounds = self.sizes["rounds"] + self.sizes["warmup"]
        facts["wire_bytes"] = facts["wire_bytes"] / rounds  # per server round
        error = surface.server_state_error(rig, ctx["delivered"])
        facts["fingerprint"] = (facts["state_hash"], facts["wire_bytes"])
        facts["checks"] = [
            ("ledger_matches_frames", facts["ledger_consistent"], ""),
            ("aggregate_is_weighted_mean", error <= 1e-6, f"max abs error {error:.2e}"),
            (
                "all_uploads_delivered",
                len(ctx["delivered"]) == self.sizes["cohort"],
                f"{len(ctx['delivered'])} of {self.sizes['cohort']}",
            ),
        ]
        return facts


# --------------------------------------------------------------------------- #
# 6: the serving path
# --------------------------------------------------------------------------- #


class ServeClosedLoop(Workload):
    name = "serve_closed_loop"
    why = (
        "the consumption side: the same model forward through a compiled "
        "forward-only plan, plus registry I/O, queueing and hot swaps under "
        "load from one closed-loop client per core"
    )
    default_sizes = dict(
        scale="small", versions=6, requests=1000, swap_every=160, warmup=20, clients=2, sample_pool=64
    )
    reduced_sizes = dict(
        scale="tiny", versions=3, requests=100, swap_every=30, warmup=5, clients=2, sample_pool=16
    )
    TIMEOUT_S = 30.0
    #: Responses compared bit-for-bit with direct evaluation of their version.
    PARITY_SAMPLE = 64

    def setup(self, seed, tracer):
        sizes = self.sizes
        scratch = _scratch_dir(self.name + "-")
        method, registry, spec = surface.new_serving_parts(seed, scratch, scale=sizes["scale"])
        if tracer is not None:
            surface.install_registry_hooks(tracer, registry)
        version_bytes = surface.publish_versions(method, registry, seed, sizes["versions"])
        rig = surface.start_serving(
            method, registry, version_bytes, kernel="tape", max_batch=8, workers=1
        )
        if tracer is not None:
            surface.install_engine_hooks(tracer, rig.engine)
        samples = surface.request_samples(spec, seed, sizes["sample_pool"])
        rig.engine.install(rig.versions[0])
        rig.frontend.start()
        for index in range(sizes["warmup"]):
            surface.serve_one(rig, samples[index % len(samples)], self.TIMEOUT_S)
        return {"rig": rig, "samples": samples, "scratch": scratch}

    def run(self, ctx, tracer):
        rig, samples, sizes = ctx["rig"], ctx["samples"], self.sizes
        per_client = sizes["requests"] // sizes["clients"]
        responses: List[Tuple[int, float, int, Any]] = []  # (request, latency ms, version, logits)
        errors: List[str] = []
        progress = threading.Condition()
        done = [0]

        def client(offset: int) -> None:
            for step in range(per_client):
                request = offset + step * sizes["clients"]
                start = time.perf_counter()
                try:
                    with region(tracer, "service.request"):
                        version, logits = surface.serve_one(
                            rig, samples[request % len(samples)], self.TIMEOUT_S
                        )
                except Exception as error:  # a dropped, rejected or timed-out request
                    with progress:
                        errors.append(f"request {request}: {error!r}")
                        done[0] += 1
                        progress.notify_all()
                    continue
                latency = (time.perf_counter() - start) * 1e3
                with progress:
                    responses.append((request, latency, version, logits))
                    done[0] += 1
                    progress.notify_all()

        threads = [threading.Thread(target=client, args=(k,)) for k in range(sizes["clients"])]
        owed = per_client * sizes["clients"]
        swap_bytes: List[int] = []
        start = time.perf_counter()
        with region(tracer, "run"):
            for thread in threads:
                thread.start()
            # Hot swap under load: after every `swap_every` completed requests
            # install the next version and tell the front end.
            for swap, version in enumerate(rig.versions[1:], start=1):
                threshold = swap * sizes["swap_every"]
                if threshold >= owed:
                    break
                with progress:
                    progress.wait_for(lambda: done[0] >= threshold, timeout=self.TIMEOUT_S)
                swap_bytes.append(surface.hot_swap(rig, version))
            for thread in threads:
                thread.join()
        run_s = time.perf_counter() - start
        ctx["responses"], ctx["errors"], ctx["swap_bytes"] = responses, errors, swap_bytes
        return Unit(
            run_s=run_s,
            ops=len(responses),
            owed=owed,
            latencies_ms=[latency for _, latency, _, _ in responses],
        )

    def facts(self, ctx, unit):
        rig, samples = ctx["rig"], ctx["samples"]
        # Served logits against direct evaluation of the tagged version.  A
        # row computed inside a micro-batch differs from the same row computed
        # alone in the last bits of the batched matmul, and the batch a request
        # rode in is not observable, so the timed responses are held to
        # round-off; the serving path itself is then held to bit-for-bit on
        # requests sent one at a time (each its own batch) before the stop.
        responses = sorted(ctx["responses"], key=lambda item: item[0])
        stride = max(1, len(responses) // self.PARITY_SAMPLE)
        sampled = responses[::stride][: self.PARITY_SAMPLE]
        drifted = 0
        for request, _, version, logits in sampled:
            direct = surface.direct_logits(rig, version, samples[request % len(samples)][None])[0]
            drifted += int(not surface.close_to_roundoff(logits, direct))
        inexact = 0
        for request, _, _, _ in sampled:
            sample = samples[request % len(samples)]
            version, logits = surface.serve_one(rig, sample, self.TIMEOUT_S)
            direct = surface.direct_logits(rig, version, sample[None])[0]
            inexact += int(not (logits.shape == direct.shape and (logits == direct).all()))
        rig.frontend.stop()  # drains; telemetry below is final
        facts = surface.serving_facts(rig)
        swaps = ctx["swap_bytes"]
        facts["wire_bytes"] = sum(swaps) / max(len(swaps), 1)  # registry bytes read per hot swap
        facts["fingerprint"] = (facts["wire_bytes"], len(swaps))
        expected = self.sizes["warmup"] + unit.owed + len(sampled)
        facts["checks"] = [
            ("all_answered", not ctx["errors"] and unit.ops == unit.owed, "; ".join(ctx["errors"][:3])),
            ("none_rejected", facts["rejected"] == 0, f"{facts['rejected']} rejected"),
            (
                "telemetry_counts_every_request",
                facts["answered"] == expected,
                f"{facts['answered']} of {expected}",
            ),
            (
                "served_close_to_direct_eval",
                drifted == 0,
                f"{drifted} of {len(sampled)} timed responses beyond round-off",
            ),
            (
                "single_requests_equal_direct_eval",
                inexact == 0,
                f"{inexact} of {len(sampled)} one-at-a-time responses not bit-for-bit",
            ),
            ("hot_swaps_happened", len(swaps) >= 1, f"{len(swaps)} swaps"),
        ]
        return facts

    def teardown(self, ctx):
        ctx["rig"].frontend.stop()
        shutil.rmtree(ctx["scratch"], ignore_errors=True)


WORKLOADS = {
    workload.name: workload
    for workload in (
        TrainRefFiL,
        TrainRefFiLPar2,
        EvalStream,
        FleetBuffered,
        ServerFanIn,
        ServeClosedLoop,
    )
}
