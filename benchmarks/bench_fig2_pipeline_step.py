"""Fig. 2: per-component cost of one RefFiL client training step.

Fig. 2 is the framework diagram (feature extractor -> CDAP -> L_CE / L_GPL /
L_DPCL -> upload).  This bench measures the wall-clock cost of one mini-batch
through that pipeline and of a full client local update, which is the quantity
a deployment on resource-constrained devices cares about.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autograd.tensor import default_dtype
from repro.core import RefFiLConfig, RefFiLMethod
from repro.datasets.registry import get_dataset_spec
from repro.datasets.synthetic import generate_domain_split
from repro.federated.client import ClientHandle, LocalTrainingConfig
from repro.federated.increment import ClientGroup
from repro.federated.server import FederatedServer
from repro.federated.transport import build_transport
from repro.models.backbone import BackboneConfig

#: Timed local updates per precision (median and IQR need at least five).
REPEATS = 5
#: The losses compared across precisions are those of the fourth local update
#: (the warm-up plus three), the point every earlier entry recorded: the model
#: keeps training across updates, and later ones drift apart once gradient
#: clipping amplifies float32 round-off.
LOSS_AT = 3


def _build_step():
    spec = get_dataset_spec("office_caltech").scaled(
        train_per_domain=32, test_per_domain=16, num_classes=4
    )
    backbone = BackboneConfig(image_size=spec.image_size, num_classes=spec.num_classes,
                              base_width=8, embed_dim=32, seed=0)
    method = RefFiLMethod(RefFiLConfig(backbone=backbone, max_tasks=4))
    model = method.build_model()
    server = FederatedServer(model)
    data = generate_domain_split(spec, 0, "train")
    client = ClientHandle(
        client_id=0,
        task_id=0,
        group=ClientGroup.NEW,
        dataset=data,
        rng=np.random.default_rng(0),
        training=LocalTrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.05),
    )
    return method, model, server, client


def test_fig2_pipeline_local_update(benchmark):
    method, model, server, client = _build_step()

    def one_local_update():
        return method.local_update(model, server.global_state, server.broadcast_payload, client)

    update = benchmark.pedantic(one_local_update, rounds=3, iterations=1, warmup_rounds=1)
    print(f"\nFig.2 pipeline: one client local update over {client.num_samples} samples")
    print(f"  uploaded state arrays : {len(update.state_dict)}")
    print(f"  uploaded prompt groups: {len(update.payload['prompt_groups']['labels'])}")
    # The upload as it crosses the wire: one measured identity-codec frame.
    transport = build_transport(
        "loopback", "identity", server.ledger, payload_codec=method.payload_codec()
    )
    transport.broadcast_round(server, [update.client_id], 0, 0)
    transport.collect_updates([update])
    print(f"  upload frame          : {transport.last_upload_bytes[update.client_id] / 1024:.1f} KiB")
    assert update.num_samples == client.num_samples
    assert len(update.payload["prompt_groups"]["labels"])


def test_fig2_pipeline_float32_vs_float64(benchmark, bench_record):
    """The same local update at both compute precisions (the ``dtype`` knob).

    Each precision runs ``REPEATS`` timed local updates after one warm-up,
    alternating precisions so drift of the machine lands on both alike.  Each
    side's median and interquartile range, the speedup of the medians and the
    ``LOSS_AT`` losses go to ``BENCH_round.json``, stamped with commit and
    machine.
    """
    samples = {"float64": [], "float32": []}
    steps = {}
    for name in samples:
        with default_dtype(name):
            steps[name] = _build_step()
            method, model, server, client = steps[name]
            # Warm-up outside the timed region (first call touches cold caches).
            method.local_update(model, server.global_state, server.broadcast_payload, client)
    losses = {}

    def run_interleaved():
        for repeat in range(1, REPEATS + 1):
            for name, (method, model, server, client) in steps.items():
                with default_dtype(name):
                    start = time.perf_counter()
                    update = method.local_update(
                        model, server.global_state, server.broadcast_payload, client
                    )
                    samples[name].append(time.perf_counter() - start)
                if repeat == LOSS_AT:
                    losses[name] = update.train_loss

    benchmark.pedantic(run_interleaved, rounds=1, iterations=1, warmup_rounds=0)

    summary = {}
    for name, times in samples.items():
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        summary[name] = median
        summary[name + "_iqr"] = q3 - q1
    speedup = summary["float64"] / summary["float32"]
    bench_record(
        "fig2_precision",
        {
            "float64_step_s": summary["float64"],
            "float64_step_iqr_s": summary["float64_iqr"],
            "float32_step_s": summary["float32"],
            "float32_step_iqr_s": summary["float32_iqr"],
            "repeats": REPEATS,
            "speedup": speedup,
            "float64_loss": losses["float64"],
            "float32_loss": losses["float32"],
        },
    )
    print(f"\nFig.2 pipeline precision (median / IQR of {REPEATS} local updates):")
    for name in samples:
        print(
            f"  {name} : {summary[name] * 1000:.1f} ms / {summary[name + '_iqr'] * 1000:.1f} ms"
            f"  (loss {losses[name]:.4f})"
        )
    print(f"  speedup : {speedup:.2f}x")
    # Precisions must agree on the training trajectory to well within SGD noise.
    assert abs(losses["float64"] - losses["float32"]) < 1e-2
