"""Online inference throughput and correctness — the serving-plane bench.

The serving plane answers prediction requests from versions a training run
published into the :class:`~repro.serving.registry.ModelRegistry`:

* the :class:`~repro.serving.engine.InferenceEngine` loads one version into
  an immutable snapshot and predicts batches through the kernel plane —
  ``eager`` is the evaluator's exact path, ``tape`` replays a compiled
  forward-only plan after a bit-for-bit verification pass;
* the :class:`~repro.serving.service.ServingFrontEnd` micro-batches
  concurrent single-sample requests over the engine and hot-swaps versions
  between batches as the trainer publishes.

This bench records requests/second per kernel and method plus under-load swap
behaviour into the append-only ``serving`` section of ``BENCH_round.json``.

Asserted invariants: served logits are bit-for-bit identical to direct
evaluation of the same registry version (engine batches AND front-end
responses), every request accepted during a burst with >= 3 concurrent hot
swaps is answered with a version the manifest knows (zero dropped, zero
mixed-version batches), and the tape serving kernel clears at least a 1.3x
requests/sec multiple over eager on repeat-shape batches of the method the
serving plane exists for (``refil``).  ``finetune`` on the same backbone is
measured and recorded next to it but not floored: since BatchNorm became one
fused op its eager forward dispatches few enough ops that its multiple sits
on either side of 1.3x from run to run (1.07x-1.43x across two 2-core boxes).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import numpy as np

from conftest import run_once  # noqa: F401  (bench suite convention)
from repro.autograd.tensor import Tensor, default_dtype, no_grad
from repro.baselines.registry import build_method
from repro.models.backbone import BackboneConfig
from repro.serving.engine import InferenceEngine
from repro.serving.registry import ModelRegistry
from repro.serving.service import ServingFrontEnd

_BACKBONE = BackboneConfig(
    image_size=16, num_classes=4, base_width=4, embed_dim=16, seed=0
)
BATCH = 4          # repeat-shape micro-batch the throughput loop replays
WARMUP = 3         # trace + verify + first replay before the clock starts
REQUESTS = 100     # timed requests per kernel per round
ROUNDS = 7         # interleaved eager/tape rounds; the medians are compared
SWAP_VERSIONS = 5  # publisher versions during the under-load burst (>= 4 swaps)
LOAD_CLIENTS = 4   # concurrent client threads during the burst


def _publish_versions(registry, method, count, jitter_seed=7):
    """Publish ``count`` distinct versions of the method's model."""
    rng = np.random.default_rng(jitter_seed)
    model = method.build_model()
    for index in range(count):
        state = model.state_dict()
        # Nudge every float tensor so each version serves different numbers.
        state = {
            key: value + rng.normal(scale=1e-3, size=np.shape(value))
            if np.asarray(value).dtype.kind == "f"
            else value
            for key, value in state.items()
        }
        registry.publish(
            name=method.name,
            state=state,
            payload=None,
            payload_codec=method.payload_codec(),
            task_id=0,
            round_index=index,
        )


def _direct_logits(registry, method, version, images):
    """The evaluator's path: load the version by hand, predict eagerly."""
    loaded = registry.load(version, method.payload_codec())
    dtype = np.float64
    for value in loaded.state.values():
        array = np.asarray(value)
        if array.dtype.kind == "f":
            dtype = array.dtype
            break
    with default_dtype(np.dtype(dtype)):
        model = method.build_model()
        model.load_state_dict(loaded.state)
    model.eval()
    with default_dtype(np.dtype(dtype)), no_grad():
        return np.asarray(method.predict_logits(model, Tensor(np.asarray(images))).data)


def _requests_per_sec(engine, images, n_requests):
    start = time.perf_counter()
    for _ in range(n_requests):
        engine.predict(images)
    return n_requests / (time.perf_counter() - start)


def _median_requests_per_sec(registry, method, images):
    """Median requests/sec per kernel over interleaved rounds on version 1.

    Interleaving shows both kernels the same thermal / scheduler conditions;
    the median of several rounds is stable on a shared 2-core box where the
    best of three ~2 ms loops was not.
    """
    engines = {}
    for kernel in ("eager", "tape"):
        engines[kernel] = InferenceEngine(registry, method, kernel=kernel)
        engines[kernel].install(1)
        for _ in range(WARMUP):
            engines[kernel].predict(images)
    samples = {kernel: [] for kernel in engines}
    for _ in range(ROUNDS):
        for kernel, engine in engines.items():
            samples[kernel].append(_requests_per_sec(engine, images, REQUESTS))
    return {kernel: float(np.median(values)) for kernel, values in samples.items()}


def test_serving_plane(bench_record):
    method = build_method("finetune", _BACKBONE, num_tasks=1)
    rng = np.random.default_rng(0)
    images = rng.uniform(-1.0, 1.0, size=(BATCH, 3, 16, 16))

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        _publish_versions(registry, method, SWAP_VERSIONS)

        # ---- parity: served logits == direct evaluation, bit for bit ---- #
        for kernel in ("eager", "tape"):
            engine = InferenceEngine(registry, method, kernel=kernel)
            info = engine.install(1)
            direct = _direct_logits(registry, method, info.version, images)
            for _ in range(WARMUP):  # covers trace, verify and replay passes
                batch = engine.predict(images)
                assert batch.version == info.version
                np.testing.assert_array_equal(batch.logits, direct)

        # Front-end parity: max_batch=1 makes every request its own batch, so
        # each response must equal the direct eval of that exact one-row batch.
        engine = InferenceEngine(registry, method, kernel="eager")
        info = engine.install(1)
        with ServingFrontEnd(engine, max_batch=1) as frontend:
            for row in range(BATCH):
                sample = images[row]
                response = frontend.predict(sample, timeout=30)
                direct = _direct_logits(
                    registry, method, info.version, sample[np.newaxis]
                )
                np.testing.assert_array_equal(response.logits, direct[0])

        # ---- throughput: tape replay vs eager on repeat-shape batches ---- #
        refil = build_method("refil", _BACKBONE, num_tasks=1)
        refil_registry = ModelRegistry(os.path.join(tmp, "refil"))
        _publish_versions(refil_registry, refil, 1)
        rates = {
            "refil": _median_requests_per_sec(refil_registry, refil, images),
            "finetune": _median_requests_per_sec(registry, method, images),
        }
        multiples = {name: rate["tape"] / rate["eager"] for name, rate in rates.items()}
        assert multiples["refil"] >= 1.3, (
            "tape serving must clear 1.3x eager requests/sec on refil, "
            f"got {multiples['refil']:.2f}x"
        )

        # ---- hot swap under load: zero drops across >= 3 swaps ---- #
        engine = InferenceEngine(registry, method, kernel="tape")
        engine.install(1)
        known_versions = {info.version for info in registry.list_versions()}
        responses, errors = [], []
        lock = threading.Lock()
        with ServingFrontEnd(engine, max_queue=4096, max_batch=8, num_workers=2) as frontend:
            swap_barrier = threading.Barrier(LOAD_CLIENTS + 1)

            def client(seed):
                local = []
                swap_barrier.wait()
                for _ in range(REQUESTS // LOAD_CLIENTS):
                    try:
                        local.append(frontend.predict(images[seed % BATCH], timeout=30))
                    except Exception as error:  # any drop/timeout fails the bench
                        with lock:
                            errors.append(error)
                        return
                with lock:
                    responses.extend(local)

            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(LOAD_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            swap_barrier.wait()
            for version in range(2, SWAP_VERSIONS + 1):  # >= 3 hot swaps
                engine.install(version)
                frontend.notify_publish()
                time.sleep(0.01)
            for thread in threads:
                thread.join()
            telemetry = frontend.telemetry()

        assert not errors, f"dropped/failed requests under swap load: {errors[:3]}"
        expected = (REQUESTS // LOAD_CLIENTS) * LOAD_CLIENTS
        assert len(responses) == expected, (
            f"answered {len(responses)} of {expected} accepted requests"
        )
        served_versions = {response.version for response in responses}
        assert served_versions <= known_versions  # only manifest-known versions
        assert engine.swap_count >= 3, f"only {engine.swap_count} swaps happened"
        assert telemetry["total_requests"] == expected
        assert telemetry["rejected"] == 0

        bench_record(
            "serving",
            {
                "batch": BATCH,
                "requests": REQUESTS,
                "rounds": ROUNDS,
                "rate_statistic": "median",
                "floored_method": "refil",
                **{
                    f"{name}_{kernel}_requests_per_sec": rate[kernel]
                    for name, rate in rates.items()
                    for kernel in ("eager", "tape")
                },
                **{f"{name}_tape_multiple": value for name, value in multiples.items()},
                "parity_bit_identical": True,
                "swap_count": engine.swap_count,
                "swap_load_requests": expected,
                "swap_load_dropped": 0,
                "versions_served_under_load": sorted(served_versions),
                "p95_latency_by_version": {
                    str(version): stats["p95_latency"]
                    for version, stats in telemetry["versions"].items()
                },
            },
        )

        print(f"\nserving plane (batch {BATCH}, {REQUESTS} requests, median of {ROUNDS} rounds):")
        for name, rate in rates.items():
            print(
                f"  {name:8s} eager {rate['eager']:7.1f} req/s, "
                f"tape {rate['tape']:7.1f} req/s ({multiples[name]:.2f}x)"
            )
        print(
            f"  finetune parity bit-identical; swaps under load: {engine.swap_count}, "
            f"{expected} requests answered, 0 dropped"
        )
