"""Online inference throughput and correctness — the serving-plane bench.

The serving plane answers prediction requests from versions a training run
published into the :class:`~repro.serving.registry.ModelRegistry`:

* the :class:`~repro.serving.engine.InferenceEngine` loads one version into
  an immutable snapshot and predicts batches under one of two kernels —
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
mixed-version batches), and two throughput floors on repeat-shape batches of
the method the serving plane exists for (``refil``): tape serving is at least
as fast as eager (>= 1.0x requests/sec), and tape serving itself has not
slowed down — its requests/sec times the mean pass time of the e2e
benchmark's fixed machine-speed kernel (``benchmarks/e2e/calibrate.py``), i.e.
requests answered per kernel pass, is at least 0.9x the value measured at the
commit before the transformer layers became single fused ops
(``PARENT_TAPE_REQUESTS_PER_KERNEL_PASS``).  The floor used to be a 1.3x
multiple over *eager*; every op fused since made eager faster and shrank that
ratio (1.49x -> 1.15x-1.3x) while tape serving kept its speed, so the floor
is stated in absolute, machine-normalised terms instead of being lowered.
``finetune`` on the same backbone is measured and recorded next to it but not
floored (its multiple has sat on either side of 1.3x since BatchNorm became
one op: 1.07x-1.43x across two 2-core boxes).

The throughput loop runs in a *fresh interpreter* (this file re-executed as a
subprocess) with one BLAS thread and glibc's mmap / trim thresholds pinned
high, because both are part of what an absolute
number measures and neither is the engine's doing: OpenBLAS's helper threads
triple the calibration kernel's pass time without touching the 16-wide
serving matmuls, and whether the heap top happens to be free after a request
decides whether ``free`` trims it — the same plan then pays ~150 page faults
per request or none (seen at both commits, moving tape's rate by ~10% with no
code change).  Parity and hot-swap behaviour are asserted in-process.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

if __name__ == "__main__":  # fresh-process measurement: no pytest conftest
    _HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [_HERE, os.path.join(_HERE, os.pardir, "src")]
else:
    from conftest import run_once  # noqa: F401  (bench suite convention)

from e2e import calibrate  # the e2e benchmark's fixed kernel: imported, never edited
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
ROUNDS = 15        # interleaved eager/tape rounds; their paired ratios are compared
SWAP_VERSIONS = 5  # publisher versions during the under-load burst (>= 4 swaps)
LOAD_CLIENTS = 4   # concurrent client threads during the burst
#: refil tape requests/sec x mean ``calibrate.kernel()`` seconds — requests
#: answered per kernel pass, so machine speed cancels — measured at the parent
#: commit 08471fe by ``_measure_rates`` below: median of 14 fresh-process runs
#: interleaved with the change's (range 34.4-44.9, e.g. 408.6 req/s x 0.0957 s;
#: the change read a median of 39.1 over its 14, range 34.1-46.3).
PARENT_TAPE_REQUESTS_PER_KERNEL_PASS = 38.6


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
    """Median requests/sec per kernel over interleaved rounds on version 1,
    the median of the rounds' tape / eager ratios, and the mean seconds of
    the machine-speed kernel run after every loop.

    Interleaving shows both kernels (and the calibration kernel) the same
    thermal / scheduler conditions, so each round's two rates form a pair:
    the median of the paired ratios cancels the drift that a ratio of the
    two medians carries (it flaked the 1.0x floor once in 11 runs with no
    code change behind it).  The median of several rounds is stable on a
    shared 2-core box where the best of three ~2 ms loops was not.
    """
    engines = {}
    for kernel in ("eager", "tape"):
        engines[kernel] = InferenceEngine(registry, method, kernel=kernel)
        engines[kernel].install(1)
        for _ in range(WARMUP):
            engines[kernel].predict(images)
    samples = {kernel: [] for kernel in engines}
    kernel_seconds = []
    for _ in range(ROUNDS):
        for kernel, engine in engines.items():
            samples[kernel].append(_requests_per_sec(engine, images, REQUESTS))
            kernel_seconds.append(calibrate.kernel())
    rates = {kernel: float(np.median(values)) for kernel, values in samples.items()}
    rates["tape_multiple"] = float(np.median(np.divide(samples["tape"], samples["eager"])))
    rates["calibration_kernel_s"] = float(np.mean(kernel_seconds))
    return rates


def _pin_allocator() -> bool:
    """No mmap'd blocks and no heap trimming: allocation cost stops depending
    on what the previous request left at the top of the heap."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20) and mallopt(M_TRIM_THRESHOLD, 256 << 20))


def _measure_rates() -> dict:
    """The timed throughput measurement; meant to run in a fresh interpreter."""
    pinned = _pin_allocator()
    images = np.random.default_rng(0).uniform(-1.0, 1.0, size=(BATCH, 3, 16, 16))
    rates = {"allocator_pinned": pinned}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("refil", "finetune"):
            method = build_method(name, _BACKBONE, num_tasks=1)
            registry = ModelRegistry(os.path.join(tmp, name))
            _publish_versions(registry, method, 1)
            rates[name] = _median_requests_per_sec(registry, method, images)
    return rates


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
        env = dict(os.environ)
        for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setdefault(variable, "1")  # an explicit setting wins
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            capture_output=True,
            text=True,
            timeout=600,
            check=False,
            env=env,
        )
        assert proc.returncode == 0, (
            f"fresh-process measurement failed:\n{proc.stdout}\n{proc.stderr}"
        )
        rates = json.loads(proc.stdout.splitlines()[-1])
        allocator_pinned = rates.pop("allocator_pinned")
        multiples = {name: rate["tape_multiple"] for name, rate in rates.items()}
        assert multiples["refil"] >= 1.0, (
            "tape serving must be at least as fast as eager on refil, "
            f"got {multiples['refil']:.2f}x"
        )
        requests_per_kernel_pass = (
            rates["refil"]["tape"] * rates["refil"]["calibration_kernel_s"]
        )
        assert requests_per_kernel_pass >= 0.9 * PARENT_TAPE_REQUESTS_PER_KERNEL_PASS, (
            f"refil tape serving answers {requests_per_kernel_pass:.1f} requests per "
            f"calibration-kernel pass ({rates['refil']['tape']:.1f} req/s x "
            f"{rates['refil']['calibration_kernel_s']:.4f} s), below 0.9x the "
            f"{PARENT_TAPE_REQUESTS_PER_KERNEL_PASS:.1f} measured at the parent commit"
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
                "multiple_statistic": "median of paired round ratios",
                "fresh_process": True,
                "allocator_pinned": allocator_pinned,
                "floored_method": "refil",
                **{
                    f"{name}_{kernel}_requests_per_sec": rate[kernel]
                    for name, rate in rates.items()
                    for kernel in ("eager", "tape")
                },
                **{f"{name}_tape_multiple": value for name, value in multiples.items()},
                "refil_calibration_kernel_s": rates["refil"]["calibration_kernel_s"],
                "refil_tape_requests_per_kernel_pass": requests_per_kernel_pass,
                "parent_tape_requests_per_kernel_pass": PARENT_TAPE_REQUESTS_PER_KERNEL_PASS,
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

        print(
            f"\nserving plane (batch {BATCH}, {REQUESTS} requests, median of {ROUNDS} rounds; "
            "multiples are medians of the rounds' tape / eager ratios):"
        )
        for name, rate in rates.items():
            print(
                f"  {name:8s} eager {rate['eager']:7.1f} req/s, "
                f"tape {rate['tape']:7.1f} req/s ({multiples[name]:.2f}x)"
            )
        print(
            f"  refil tape: {requests_per_kernel_pass:.1f} requests per calibration-kernel "
            f"pass of {rates['refil']['calibration_kernel_s']:.4f} s "
            f"(parent commit: {PARENT_TAPE_REQUESTS_PER_KERNEL_PASS:.1f}, floor 0.9x)"
        )
        print(
            f"  finetune parity bit-identical; swaps under load: {engine.swap_count}, "
            f"{expected} requests answered, 0 dropped"
        )


if __name__ == "__main__":
    print(json.dumps(_measure_rates()))
