"""Bytes-on-wire and accuracy per wire codec — the communication plane bench.

RefFiL's deployability argument is communication-bound: model weights plus
per-class prompt groups ride every round.  This bench runs the same RefFiL
workload through every wire codec of the transport and records what
each one actually puts on the wire (the ledger's *measured* encoded frame
lengths, not ``nbytes`` estimates) next to the accuracy it delivers:

* ``identity`` — raw frames, the measured baseline;
* ``delta``    — lossless sparse diff vs. the last acknowledged broadcast;
* ``quantize8`` / ``quantize16`` — uniform per-tensor quantization;
* ``topk``     — upload-only magnitude sparsification of the weight diff.

Asserted invariants: the lossless ``delta`` codec reproduces the ``identity``
accuracy matrix and round losses bit-for-bit, and
``quantize8`` cuts measured upload bytes by at least 4x vs. ``identity``
(float64 weights become 1-byte codes).  Lossy codecs additionally report
their accuracy delta next to their compression ratio — the trade the
constrained-device scenario family is about.  A bandwidth-constrained
straggler run (per-client budgets, drop mode) is recorded alongside.

Beside the bytes, each codec's ``encode_frame`` + ``decode_frame`` time on one
``small``-scale RefFiL upload (model state plus a prompt group, the message
the e2e ``server_fanin`` workload moves) is recorded as ``round_trip_ms`` —
the per-message cost the columnar frame format exists to keep per-element.

Everything lands in the append-only ``comm_plane`` section of
``BENCH_round.json``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from conftest import run_once  # noqa: F401  (bench suite convention)
from repro.continual.scenario import DomainIncrementalScenario
from repro.core import RefFiLConfig, RefFiLMethod
from repro.datasets.registry import build_dataset, get_dataset_spec
from repro.experiments import ExperimentScale, scaled_config
from repro.federated.client import LocalTrainingConfig
from repro.federated.communication import (
    build_codec,
    decode_frame,
    encode_frame,
    flatten_message,
)
from repro.federated.config import FederatedConfig
from repro.federated.increment import ClientIncrementConfig
from repro.federated.simulation import FederatedDomainIncrementalSimulation
from repro.models.backbone import BackboneConfig

NUM_CLIENTS = 4
NUM_TASKS = 2
ROUNDS_PER_TASK = 2
CODECS = ("identity", "delta", "quantize8", "quantize16", "topk")


def _build_simulation(**federated_overrides) -> FederatedDomainIncrementalSimulation:
    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=48, test_per_domain=32, num_classes=3
    )
    backbone = BackboneConfig(
        image_size=spec.image_size, num_classes=spec.num_classes,
        base_width=8, embed_dim=32, seed=0,
    )
    dataset = build_dataset("office_caltech", spec_override=spec)
    scenario = DomainIncrementalScenario(dataset, num_tasks=NUM_TASKS)
    method = RefFiLMethod(RefFiLConfig(backbone=backbone, max_tasks=NUM_TASKS))
    config = FederatedConfig(
        increment=ClientIncrementConfig(
            initial_clients=NUM_CLIENTS, increment_per_task=1, transfer_fraction=0.5, seed=0
        ),
        clients_per_round=NUM_CLIENTS,
        rounds_per_task=ROUNDS_PER_TASK,
        local=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.05),
        eval_batch_size=16,
        seed=0,
        # float64, as in every earlier entry of the section: the >= 4x bound
        # is 8-byte values against 1-byte codes.
        dtype="float64",
        **federated_overrides,
    )
    return FederatedDomainIncrementalSimulation(scenario, method, config)


def _round_trip_ms(repeats: int = 30) -> dict:
    """Median ms of one encode_frame + decode_frame per codec on a ``small`` RefFiL upload."""
    backbone = scaled_config("office_caltech", ExperimentScale.SMALL).backbone
    method = RefFiLMethod(RefFiLConfig(backbone=backbone, max_tasks=1))
    rng = np.random.default_rng(0)
    reference = method.build_model().state_dict()
    state = {
        key: value + 0.01 * rng.standard_normal(value.shape) if value.dtype.kind == "f" else value
        for key, value in reference.items()
    }
    groups = {
        "labels": np.arange(backbone.num_classes, dtype=np.int64),
        "vectors": rng.standard_normal((backbone.num_classes, backbone.embed_dim)),
    }
    payload_codec = method.payload_codec()
    message, _ = flatten_message(state, {"prompt_groups": groups}, payload_codec)
    base, _ = flatten_message(reference, {"prompt_groups": groups}, payload_codec)
    timings = {}
    for spec in CODECS:
        codec = build_codec(spec)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            decode_frame(encode_frame("upload", codec, message, None, base), codec, base)
            samples.append((time.perf_counter() - start) * 1e3)
        timings[spec] = statistics.median(samples)
    timings["arrays"] = len(message)
    timings["elements"] = int(sum(value.size for value in message.values()))
    return timings


def test_comm_plane_codecs(bench_record):
    per_codec = {}
    for codec in CODECS:
        sim = _build_simulation(codec=codec)
        result = sim.run()
        ledger = result.communication
        assert ledger.measured  # every round's bytes came from encoded frames
        # The ledger totals must be exactly the sum of the per-client frame
        # lengths it recorded — no estimate path anywhere.
        assert ledger.uploaded_bytes == sum(r.upload_bytes for r in ledger.records)
        assert ledger.broadcast_bytes == sum(r.broadcast_bytes for r in ledger.records)
        per_codec[codec] = {
            "upload_bytes": ledger.uploaded_bytes,
            "broadcast_bytes": ledger.broadcast_bytes,
            "total_bytes": ledger.total_bytes,
            "avg_accuracy": result.metrics.average,
            "accuracy_delta_vs_identity": None,  # filled below
            "matrix": result.metrics.matrix,
            "round_losses": result.round_losses,
        }

    # Timed after the runs above: in a fresh interpreter glibc serves every
    # message-sized temporary from mmap and the same code measures ~2x slower
    # than in a process whose heap has grown, as a server's has.
    round_trip_ms = _round_trip_ms()

    identity = per_codec["identity"]
    for codec, stats in per_codec.items():
        stats["upload_compression_x"] = identity["upload_bytes"] / stats["upload_bytes"]
        stats["broadcast_compression_x"] = (
            identity["broadcast_bytes"] / stats["broadcast_bytes"]
        )
        stats["accuracy_delta_vs_identity"] = (
            stats["avg_accuracy"] - identity["avg_accuracy"]
        )

    # Lossless codecs are results-invariant: delta is bit-for-bit with the
    # identity reference, in both the accuracy matrix and the loss trajectory.
    np.testing.assert_array_equal(identity["matrix"], per_codec["delta"]["matrix"])
    assert identity["round_losses"] == per_codec["delta"]["round_losses"]
    # float64 weights as 1-byte codes: at least 4x less measured upload.
    assert per_codec["quantize8"]["upload_compression_x"] >= 4.0
    assert per_codec["quantize16"]["upload_compression_x"] >= 2.0
    assert per_codec["topk"]["upload_compression_x"] >= 2.0

    # A constrained-device scenario on top: per-client uplink budgets sized to
    # the identity frame, stragglers dropped.
    frame = identity["upload_bytes"] // (NUM_TASKS * ROUNDS_PER_TASK * NUM_CLIENTS)
    straggler = _build_simulation(
        codec="identity", bandwidth_limit=frame, drop_stragglers=True
    ).run()

    bench_record(
        "comm_plane",
        {
            "num_tasks": NUM_TASKS,
            "rounds_per_task": ROUNDS_PER_TASK,
            "clients_per_round": NUM_CLIENTS,
            "codecs": {
                codec: {
                    key: value
                    for key, value in stats.items()
                    if key not in ("matrix", "round_losses")
                }
                for codec, stats in per_codec.items()
            },
            "lossless_parity": True,
            "round_trip_ms_small_message": round_trip_ms,
            "straggler_scenario": {
                "bandwidth_limit": frame,
                "dropped_uploads": straggler.communication.dropped_uploads,
                "dropped_upload_bytes": straggler.communication.dropped_upload_bytes,
                "avg_accuracy": straggler.metrics.average,
                "accuracy_delta_vs_identity": straggler.metrics.average
                - identity["avg_accuracy"],
            },
        },
    )

    print(f"\ncommunication plane over {NUM_TASKS} tasks x {ROUNDS_PER_TASK} rounds "
          f"({NUM_CLIENTS} clients/round, RefFiL, measured wire frames):")
    for codec, stats in per_codec.items():
        print(f"  {codec:11s}: up {stats['upload_bytes']:9d} B "
              f"({stats['upload_compression_x']:5.2f}x)  "
              f"down {stats['broadcast_bytes']:9d} B "
              f"({stats['broadcast_compression_x']:5.2f}x)  "
              f"avg {stats['avg_accuracy']:.4f} "
              f"({stats['accuracy_delta_vs_identity']:+.4f})")
    print("  encode+decode of one small RefFiL upload "
          f"({round_trip_ms['arrays']} arrays, {round_trip_ms['elements']} elements): "
          + ", ".join(f"{codec} {round_trip_ms[codec]:.2f} ms" for codec in CODECS))
    print(f"  stragglers : budget {frame} B/client -> "
          f"{straggler.communication.dropped_uploads} uploads dropped, "
          f"avg {straggler.metrics.average:.4f}")
