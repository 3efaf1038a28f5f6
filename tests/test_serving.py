"""Tests of the serving plane: registry durability, hot swap, front-end delivery.

The plane's contract comes in three layers, each with its own guarantees:

* **Registry** — published versions survive the disk round-trip bit-exactly
  (property-tested across codecs, dtypes and shapes), the manifest orders
  versions and keeps ``latest()`` monotonic even across pruning, and any
  corruption (truncated file, mangled manifest, inconsistent ids) raises a
  typed :class:`~repro.serving.registry.RegistryCorruptionError` — garbage is
  never served.
* **Engine** — served logits are bit-for-bit identical to direct evaluation
  of the same version under both serving kernels, snapshots are immune to
  later mutation of the live method, and hot swap is atomic: concurrent
  requests are answered entirely by one version or the other.
* **Front end** — every accepted request is answered exactly once (including
  the backlog at ``stop()``), a full queue rejects with a typed
  :class:`~repro.serving.service.QueueFullError`, and under concurrent
  publishes no response is dropped or tagged with a version the manifest
  does not know.

The satellites live here too: ``checkpoint_keep`` retention (shared last-K
policy), thread-local autograd state (tracing/no-grad/dtype must not
bleed between the training thread and serving workers), and the serving
knobs' config validation, fingerprint masking and run-cache folding.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import tape as tape_mod
from repro.autograd.tape import PlanError, Tape, tracing
from repro.autograd.tensor import Tensor, default_dtype, get_default_dtype, no_grad
from repro.baselines.base import BaselineConfig
from repro.baselines.finetune import FinetuneMethod
from repro.baselines.registry import build_method
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.federated import FederatedDomainIncrementalSimulation
from repro.federated.checkpoint import (
    config_fingerprint,
    parse_checkpoint_name,
    prune_checkpoints,
    load_checkpoint,
    retain_last,
    save_checkpoint,
)
from repro.federated.config import FederatedConfig
from repro.serving import (
    InferenceEngine,
    ModelRegistry,
    QueueFullError,
    RegistryCorruptionError,
    RegistryError,
    ServedBatch,
    ServingFrontEnd,
    UnknownVersionError,
    VersionInfo,
)
from repro.serving.engine import ForwardPlan
from repro.serving.registry import version_filename


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #

def _method(backbone):
    return build_method("finetune", backbone, num_tasks=2)


class ScaledMethod(FinetuneMethod):
    """A mutable test method: ``predict_logits`` consults a live attribute
    the trainer can change."""

    name = "scaled"

    def __init__(self, config):
        super().__init__(config)
        self.logit_scale = 1.0

    def predict_logits(self, model, images):
        return model(images) * self.logit_scale


def _publish_model(registry, method, **kwargs):
    model = method.build_model()
    return registry.publish(
        name=method.name,
        state=model.state_dict(),
        payload_codec=method.payload_codec(),
        **kwargs,
    )


_DTYPES = (np.float64, np.float32, np.int64, np.uint8)
_SHAPES = ((), (1,), (5,), (2, 3), (2, 0), (2, 2, 2))


@st.composite
def state_dicts(draw):
    num = draw(st.integers(1, 4))
    state = {}
    for index in range(num):
        dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
        shape = draw(st.sampled_from(_SHAPES))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        if dtype.kind == "f":
            values = rng.standard_normal(shape).astype(dtype)
        else:
            values = rng.integers(0, 100, size=shape).astype(dtype)
        state[f"param_{index}"] = values
    return state


# --------------------------------------------------------------------------- #
# Registry durability
# --------------------------------------------------------------------------- #

class TestRegistryDurability:
    @given(state=state_dicts(), codec=st.sampled_from(["identity", "delta"]))
    @settings(max_examples=25, deadline=None)
    def test_lossless_publish_load_round_trip(self, tmp_path_factory, state, codec):
        """Lossless codecs: what was published is what loads, bit for bit."""
        directory = str(tmp_path_factory.mktemp("registry"))
        registry = ModelRegistry(directory)
        info = registry.publish(name="m", state=state, codec=codec)
        loaded = registry.load(info.version)
        assert set(loaded.state) == set(state)
        for key, value in state.items():
            assert loaded.state[key].dtype == value.dtype
            np.testing.assert_array_equal(loaded.state[key], value)

    def test_payload_round_trips_through_method_codec(self, tmp_path, tiny_backbone_config):
        method = _method(tiny_backbone_config)
        registry = ModelRegistry(str(tmp_path))
        model = method.build_model()
        payload = {"temperature": np.asarray([0.5, 1.5])}
        registry.publish(
            name=method.name,
            state=model.state_dict(),
            payload=payload,
            payload_codec=method.payload_codec(),
        )
        loaded = registry.load(payload_codec=method.payload_codec())
        np.testing.assert_array_equal(loaded.payload["temperature"], payload["temperature"])
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(loaded.state[key], value)

    def test_manifest_metadata_and_ordering(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        for index in range(3):
            info = registry.publish(
                name="m",
                state={"w": np.full(3, float(index))},
                codec="delta",
                task_id=index,
                round_index=index + 1,
                fingerprint=f"fp-{index}",
                accuracy={"domain": 0.1 * index},
            )
            assert info.version == index + 1
            assert info.num_bytes == os.path.getsize(
                tmp_path / version_filename(info.version)
            )
        versions = registry.list_versions()
        assert [entry.version for entry in versions] == [1, 2, 3]
        assert [entry.task_id for entry in versions] == [0, 1, 2]
        assert versions[-1].accuracy == {"domain": pytest.approx(0.2)}
        assert registry.info(2).fingerprint == "fp-1"
        with pytest.raises(UnknownVersionError):
            registry.info(99)

    def test_latest_is_monotonic_across_instances_and_pruning(self, tmp_path):
        """Version ids never regress: next_version survives pruning and reopen."""
        directory = str(tmp_path)
        seen = []
        for index in range(5):
            registry = ModelRegistry(directory, keep=2)  # fresh instance each time
            info = registry.publish(name="m", state={"w": np.zeros(2)})
            latest = registry.latest()
            assert latest is not None and latest.version == info.version
            if seen:
                assert info.version > seen[-1]
            seen.append(info.version)
        assert seen == [1, 2, 3, 4, 5]

    def test_retention_prunes_oldest_first(self, tmp_path):
        registry = ModelRegistry(str(tmp_path), keep=2)
        for _ in range(5):
            registry.publish(name="m", state={"w": np.arange(4.0)})
        assert [entry.version for entry in registry.list_versions()] == [4, 5]
        on_disk = sorted(name for name in os.listdir(tmp_path) if name.endswith(".rpv"))
        assert on_disk == [version_filename(4), version_filename(5)]
        with pytest.raises(UnknownVersionError):
            registry.load(1)

    def test_empty_registry(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        assert registry.latest() is None
        assert registry.list_versions() == []
        with pytest.raises(UnknownVersionError):
            registry.load()

    def test_truncated_version_file_raises_typed_error(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        info = registry.publish(name="m", state={"w": np.zeros(8)})
        path = tmp_path / info.filename
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(RegistryCorruptionError):
            registry.load(info.version)

    def test_corrupted_version_file_raises_typed_error(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        info = registry.publish(name="m", state={"w": np.zeros(8)})
        path = tmp_path / info.filename
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip a payload bit: CRC must catch it
        path.write_bytes(bytes(raw))
        with pytest.raises(RegistryCorruptionError):
            registry.load(info.version)

    def test_missing_version_file_raises_typed_error(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        info = registry.publish(name="m", state={"w": np.zeros(2)})
        os.remove(tmp_path / info.filename)
        with pytest.raises(RegistryCorruptionError, match="missing"):
            registry.load(info.version)

    def test_format_1_version_file_raises_typed_error(self, tmp_path):
        """A file published before plans went columnar names both formats, not a
        codec exception: its per-array plan is a well-formed, CRC-clean blob."""
        registry = ModelRegistry(str(tmp_path))
        info = registry.publish(name="m", state={"w": np.zeros(2)})
        save_checkpoint(
            str(tmp_path / info.filename),
            {
                "registry_format": 1,
                "version": info.version,
                "name": "m",
                "codec": "identity",
                "plan": {"s::w": np.zeros(2)},
                "skeleton": None,
            },
        )
        with pytest.raises(RegistryCorruptionError, match=r"format 1.*format 3"):
            registry.load(info.version)

    def test_format_2_version_file_raises_typed_error(self, tmp_path):
        """A file published while a model's state still carried its frozen
        tokenizer (drifted by averaging) is refused: by its format, naming
        both, and, as written then, by its container version too."""
        registry = ModelRegistry(str(tmp_path))
        state = {"backbone.tokenizer.projection.weight": np.zeros(2), "w": np.zeros(2)}
        info = registry.publish(name="m", state=state)
        path = tmp_path / info.filename
        save_checkpoint(str(path), {**load_checkpoint(str(path)), "registry_format": 2})
        with pytest.raises(RegistryCorruptionError, match=r"format 2.*format 3"):
            registry.load(info.version)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (3).to_bytes(4, "big")
        path.write_bytes(bytes(raw))
        with pytest.raises(RegistryCorruptionError, match="version 3, expected 5"):
            registry.load(info.version)

    def test_older_container_version_raises_typed_error(self, tmp_path):
        """Version files share the checkpoint container: one written under
        container version 2 (CRC intact) is refused by its header."""
        registry = ModelRegistry(str(tmp_path))
        info = registry.publish(name="m", state={"w": np.zeros(2)})
        path = tmp_path / info.filename
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "big")
        path.write_bytes(bytes(raw))
        with pytest.raises(RegistryCorruptionError, match="version 2, expected 5"):
            registry.load(info.version)

    def test_mangled_manifest_raises_typed_error(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        registry.publish(name="m", state={"w": np.zeros(2)})
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(RegistryCorruptionError):
            registry.list_versions()

    def test_malformed_manifest_entry_raises_typed_error(self):
        with pytest.raises(RegistryCorruptionError, match="malformed"):
            VersionInfo.from_json({"version": "not-an-int-either-way", "name": "m"})

    def test_registry_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ModelRegistry("")
        with pytest.raises(ValueError):
            ModelRegistry(str(tmp_path), keep=-1)


# --------------------------------------------------------------------------- #
# Inference engine: parity and hot swap
# --------------------------------------------------------------------------- #

class TestInferenceEngine:
    def _direct_logits(self, registry, method, version, images):
        loaded = registry.load(version, method.payload_codec())
        dtype = np.float64
        for value in loaded.state.values():
            if np.asarray(value).dtype.kind == "f":
                dtype = np.asarray(value).dtype
                break
        with default_dtype(np.dtype(dtype)):
            model = method.build_model()
            model.load_state_dict(loaded.state)
        model.eval()
        with default_dtype(np.dtype(dtype)), no_grad():
            return np.asarray(method.predict_logits(model, Tensor(np.asarray(images))).data)

    @pytest.mark.parametrize("kernel", ["eager", "tape"])
    def test_served_logits_bit_identical_to_direct_eval(
        self, tmp_path, tiny_backbone_config, rng, kernel
    ):
        method = _method(tiny_backbone_config)
        registry = ModelRegistry(str(tmp_path))
        info = _publish_model(registry, method, codec="delta")
        engine = InferenceEngine(registry, method, kernel=kernel)
        assert engine.install().version == info.version
        size = tiny_backbone_config.image_size
        images = rng.uniform(-1.0, 1.0, size=(4, 3, size, size))
        direct = self._direct_logits(registry, method, info.version, images)
        # Three passes cover the tape kernel's full lifecycle: trace, verify
        # (eager authoritative), replay-only — all must match bit for bit.
        for _ in range(3):
            batch = engine.predict(images)
            assert batch.version == info.version
            np.testing.assert_array_equal(batch.logits, direct)

    def test_eval_batch_norm_compiles_and_train_mode_is_refused(
        self, tmp_path, tiny_backbone_config, rng
    ):
        method = _method(tiny_backbone_config)
        registry = ModelRegistry(str(tmp_path))
        info = _publish_model(registry, method)
        engine = InferenceEngine(registry, method, kernel="tape")
        engine.install()
        size = tiny_backbone_config.image_size
        images = rng.uniform(-1.0, 1.0, size=(2, 3, size, size))
        direct = self._direct_logits(registry, method, info.version, images)
        for _ in range(3):
            np.testing.assert_array_equal(engine.predict(images).logits, direct)
        # The bit-for-bit answers above came from a compiled plan, not from
        # the eager fallback: eval-mode batch norm carries no effect.
        (state,) = engine._snapshot.plans._plans.values()
        assert state.verified and not state.bad

        # The same forward in train mode would write the snapshot's running
        # statistics on every replay; the forward plan refuses to compile it.
        model = method.build_model()
        model.train()
        tape = Tape()
        x = Tensor(images)
        tape.mark_input("images", x)
        with no_grad(), tracing(tape):
            logits = method.predict_logits(model, x)
        with pytest.raises(PlanError, match="effect"):
            ForwardPlan(tape, logits)

    def test_predict_before_install_raises(self, tmp_path, tiny_backbone_config):
        method = _method(tiny_backbone_config)
        engine = InferenceEngine(ModelRegistry(str(tmp_path)), method)
        with pytest.raises(RegistryError, match="no version installed"):
            engine.predict(np.zeros((1, 3, 8, 8)))

    def test_unknown_kernel_rejected(self, tmp_path, tiny_backbone_config):
        with pytest.raises(ValueError, match="serving kernel"):
            InferenceEngine(
                ModelRegistry(str(tmp_path)), _method(tiny_backbone_config), kernel="batched"
            )

    def test_refresh_installs_only_newer(self, tmp_path, tiny_backbone_config, rng):
        method = _method(tiny_backbone_config)
        registry = ModelRegistry(str(tmp_path))
        engine = InferenceEngine(registry, method)
        assert engine.refresh() is None  # empty registry: nothing to install
        _publish_model(registry, method)
        assert engine.refresh().version == 1
        assert engine.refresh() is None  # already current
        assert engine.swap_count == 0  # first install is not a swap
        _publish_model(registry, method)
        assert engine.refresh().version == 2
        assert engine.swap_count == 1
        # Installing the already-current version is a no-op, not a swap.
        assert engine.install(2).version == 2
        assert engine.swap_count == 1

    def test_snapshot_frozen_against_later_method_mutation(
        self, tmp_path, tiny_backbone_config, rng
    ):
        """The snapshot deep-copies the method: later live mutations cannot bleed in."""
        method = ScaledMethod(BaselineConfig(backbone=tiny_backbone_config))
        registry = ModelRegistry(str(tmp_path))
        _publish_model(registry, method)
        engine = InferenceEngine(registry, method)
        engine.install()
        size = tiny_backbone_config.image_size
        images = rng.uniform(-1.0, 1.0, size=(2, 3, size, size))
        before = engine.predict(images).logits
        method.logit_scale = 100.0  # trainer mutates its live method mid-serve
        np.testing.assert_array_equal(engine.predict(images).logits, before)

    def test_snapshot_frozen_against_in_place_mutation_of_method_state(
        self, tmp_path, tiny_backbone_config, rng
    ):
        """A shallow copy would share the array the live method scales by."""
        method = ScaledMethod(BaselineConfig(backbone=tiny_backbone_config))
        method.logit_scale = np.ones(tiny_backbone_config.num_classes)
        registry = ModelRegistry(str(tmp_path))
        _publish_model(registry, method)
        engine = InferenceEngine(registry, method)
        engine.install()
        size = tiny_backbone_config.image_size
        images = rng.uniform(-1.0, 1.0, size=(2, 3, size, size))
        before = engine.predict(images).logits
        method.logit_scale *= 100.0  # written in place, not rebound
        np.testing.assert_array_equal(engine.predict(images).logits, before)

    @pytest.mark.parametrize("kernel", ["eager", "tape"])
    def test_a_snapshot_serves_the_prompt_store_its_version_published(
        self, tmp_path, tiny_backbone_config, rng, kernel
    ):
        """CDAP-free RefFiL averages its prompt store at inference, so an
        installed version must serve the store it published, not the one the
        live method holds when the version is installed."""
        method = build_method("refil_gpl", tiny_backbone_config, num_tasks=2)
        dim, classes = tiny_backbone_config.embed_dim, tiny_backbone_config.num_classes
        method.store.replace({label: rng.standard_normal((2, dim)) for label in range(classes)})
        registry = ModelRegistry(str(tmp_path))
        info = registry.publish(
            name=method.name,
            state=method.build_model().state_dict(),
            payload=method.store.to_payload(),
            payload_codec=method.payload_codec(),
        )
        size = tiny_backbone_config.image_size
        images = rng.uniform(-1.0, 1.0, size=(2, 3, size, size))
        direct = self._direct_logits(registry, method, info.version, images)
        method.store.replace({0: rng.standard_normal((1, dim))})  # the live store moves on
        engine = InferenceEngine(registry, method, kernel=kernel)
        engine.install(info.version)
        for _ in range(3):  # the tape kernel's trace, verify and replay passes
            np.testing.assert_array_equal(engine.predict(images).logits, direct)

    def test_hot_swap_atomic_under_concurrent_predicts(
        self, tmp_path, tiny_backbone_config, rng
    ):
        """Concurrent predicts during installs: every batch is one whole version."""
        method = _method(tiny_backbone_config)
        registry = ModelRegistry(str(tmp_path))
        size = tiny_backbone_config.image_size
        images = rng.uniform(-1.0, 1.0, size=(2, 3, size, size))
        for index in range(4):
            model = method.build_model()
            state = {
                key: np.asarray(value) + (index if np.asarray(value).dtype.kind == "f" else 0)
                for key, value in model.state_dict().items()
            }
            registry.publish(name="m", state=state, payload_codec=method.payload_codec())
        engine = InferenceEngine(registry, method)
        engine.install(1)
        expected = {
            version: self._direct_logits(registry, method, version, images)
            for version in (1, 2, 3, 4)
        }
        stop = threading.Event()
        failures = []

        def client():
            while not stop.is_set():
                batch = engine.predict(images)
                if not np.array_equal(batch.logits, expected[batch.version]):
                    failures.append(batch.version)
                    return

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        for version in (2, 3, 4, 2, 3, 4):
            engine.install(version)
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures, f"mixed-version responses for versions {failures}"
        assert engine.swap_count >= 6


# --------------------------------------------------------------------------- #
# Serving front end: delivery guarantees
# --------------------------------------------------------------------------- #

class _RefusedSample(ValueError):
    """The stub engine's refusal of a sample its model cannot take."""


class _StubEngine:
    """An engine stand-in that makes batch formation deterministic.

    Every ``predict`` records its batch size, then waits for ``release``, so
    requests submitted while the first call is held are certain to queue
    behind it.  Row ``i`` of the logits is the mean of sample ``i``; a batch
    of samples that are not float and ``accepts``-shaped is refused.
    """

    swap_count = 0
    current_version = 1
    accepts = (3, 4, 4)

    def __init__(self, held=True):
        self.entered = threading.Event()
        self.release = threading.Event()
        if not held:
            self.release.set()
        self.batch_sizes = []

    def refresh(self):
        return None

    def predict(self, images):
        self.batch_sizes.append(len(images))
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise TimeoutError("the stub engine was never released")
        if images.shape[1:] != self.accepts or images.dtype.kind != "f":
            raise _RefusedSample(
                f"cannot serve {images.dtype} samples of shape {images.shape[1:]}"
            )
        logits = images.reshape(len(images), -1).mean(axis=1, keepdims=True)
        return ServedBatch(version=1, logits=logits)


class TestServingFrontEnd:
    def _served_engine(self, tmp_path, backbone):
        method = _method(backbone)
        registry = ModelRegistry(str(tmp_path))
        _publish_model(registry, method)
        engine = InferenceEngine(registry, method)
        engine.install()
        return engine

    def test_full_queue_rejects_with_typed_error(self, tmp_path, tiny_backbone_config):
        engine = self._served_engine(tmp_path, tiny_backbone_config)
        size = tiny_backbone_config.image_size
        frontend = ServingFrontEnd(engine, max_queue=1)  # workers never started
        frontend._accepting = True
        frontend.submit(np.zeros((3, size, size)))
        with pytest.raises(QueueFullError):
            frontend.submit(np.zeros((3, size, size)))
        assert frontend.telemetry()["rejected"] == 1

    def test_submit_after_stop_raises(self, tmp_path, tiny_backbone_config):
        engine = self._served_engine(tmp_path, tiny_backbone_config)
        size = tiny_backbone_config.image_size
        frontend = ServingFrontEnd(engine).start()
        frontend.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            frontend.submit(np.zeros((3, size, size)))

    def test_stop_drains_accepted_backlog(self, tmp_path, tiny_backbone_config, rng):
        """Requests accepted before stop() are all answered, never dropped."""
        engine = self._served_engine(tmp_path, tiny_backbone_config)
        size = tiny_backbone_config.image_size
        frontend = ServingFrontEnd(engine, max_queue=64, max_batch=4, num_workers=2).start()
        futures = [
            frontend.submit(rng.uniform(-1.0, 1.0, size=(3, size, size)))
            for _ in range(20)
        ]
        frontend.stop()
        for future in futures:
            response = future.result(timeout=0)  # stop() already drained them
            assert response.logits.shape == (tiny_backbone_config.num_classes,)
        assert frontend.telemetry()["total_requests"] == 20

    def test_microbatching_and_telemetry(self):
        """A held worker's backlog is served in FIFO order, ``max_batch`` at a
        time, and a lone request never waits for batch-mates: the first of
        eleven requests goes alone, the ten queued behind it as 4 + 4 + 2."""
        engine = _StubEngine()
        samples = [np.full((3, 4, 4), float(index)) for index in range(11)]
        with ServingFrontEnd(engine, max_batch=4) as frontend:
            futures = [frontend.submit(samples[0])]
            assert engine.entered.wait(timeout=30)
            futures += [frontend.submit(sample) for sample in samples[1:]]
            engine.release.set()
            responses = [future.result(timeout=30) for future in futures]
        assert engine.batch_sizes == [1, 4, 4, 2]
        assert [float(response.logits[0]) for response in responses] == list(range(11))
        telemetry = frontend.telemetry()
        assert telemetry["total_requests"] == 11
        assert telemetry["rejected"] == 0
        assert telemetry["current_version"] == 1
        stats = telemetry["versions"][1]
        assert (stats["requests"], stats["batches"], stats["max_batch_size"]) == (11, 4, 4)
        assert stats["mean_batch_size"] == pytest.approx(11 / 4)
        assert stats["p95_latency"] >= stats["p50_latency"] >= 0.0
        assert all(response.version == 1 for response in responses)
        assert all(response.latency >= 0.0 for response in responses)

    def test_sequential_requests_are_never_held_for_a_batch(self):
        """A client sending one request at a time is served as each arrives:
        no request waits for batch-mates that are not coming."""
        engine = _StubEngine(held=False)
        count = 200
        with ServingFrontEnd(engine, max_batch=8) as frontend:
            start = time.perf_counter()
            for _ in range(count):
                frontend.predict(np.zeros((3, 4, 4)), timeout=30)
            elapsed = time.perf_counter() - start
        assert engine.batch_sizes == [1] * count
        # A 2 ms batching window alone would take count x 2 ms.
        assert elapsed < count * 0.002 / 2, f"{count} one-at-a-time requests took {elapsed:.3f} s"

    def test_malformed_sample_fails_alone(self):
        """Samples that cannot be stacked together never share an engine call:
        the model's refusal of one reaches that request only, and the requests
        batched with it are answered."""
        engine = _StubEngine()
        with ServingFrontEnd(engine, max_batch=8) as frontend:
            first = frontend.submit(np.full((3, 4, 4), 1.0))
            assert engine.entered.wait(timeout=30)
            good = frontend.submit(np.full((3, 4, 4), 2.0))
            wrong_shape = frontend.submit(np.ones((3, 2, 2)))
            wrong_dtype = frontend.submit(np.full((3, 4, 4), 4, dtype=np.int64))
            also_good = frontend.submit(np.full((3, 4, 4), 3.0))
            engine.release.set()
            answered = [future.result(timeout=30) for future in (first, good, also_good)]
            with pytest.raises(_RefusedSample, match=r"shape \(3, 2, 2\)"):
                wrong_shape.result(timeout=30)
            with pytest.raises(_RefusedSample, match="int64"):
                wrong_dtype.result(timeout=30)
        assert [float(response.logits[0]) for response in answered] == [1.0, 2.0, 3.0]
        assert engine.batch_sizes == [1, 2, 1, 1]
        assert frontend.telemetry()["total_requests"] == 3

    @pytest.mark.parametrize(
        "sample, match",
        [
            (np.full((3, 4, 4), np.nan), "NaN or infinite"),
            (np.full((3, 4, 4), -np.inf), "NaN or infinite"),
            (np.full((3, 4, 4), np.inf), "NaN or infinite"),
            (np.where(np.arange(48).reshape(3, 4, 4) == 17, np.nan, 0.5), "NaN or infinite"),
            (np.ones((3, 4, 4), dtype=bool), "real-valued array, got dtype bool"),
            (np.full((3, 4, 4), "x"), "real-valued array, got dtype <U1"),
            (np.full((3, 4, 4), 1 + 1j), "real-valued array, got dtype complex128"),
            (np.empty((3, 4, 4), dtype=object), "real-valued array, got dtype object"),
        ],
        ids=["nan", "inf", "pos-inf", "one-nan-pixel", "bool", "string", "complex", "object"],
    )
    def test_non_finite_or_non_numeric_sample_is_refused_before_queueing(self, sample, match):
        """Before the check a NaN image was served NaN logits.  A refused sample
        never reaches the queue, the engine or the telemetry."""
        engine = _StubEngine(held=False)
        with ServingFrontEnd(engine, max_batch=8) as frontend:
            with pytest.raises(ValueError, match=match):
                frontend.submit(sample)
            assert float(frontend.predict(np.full((3, 4, 4), 1.0), timeout=30).logits[0]) == 1.0
        assert engine.batch_sizes == [1]
        assert frontend.telemetry()["total_requests"] == 1

    def test_sample_of_the_wrong_shape_is_refused_naming_both_shapes(
        self, tmp_path, tiny_backbone_config
    ):
        method = _method(tiny_backbone_config)
        registry = ModelRegistry(str(tmp_path))
        _publish_model(registry, method)
        engine = InferenceEngine(registry, method, kernel="tape")
        engine.install()
        size = tiny_backbone_config.image_size
        with ServingFrontEnd(engine) as frontend:
            for shape in ((3, size, 5), (3, size // 2, size // 2)):
                expected = rf"\(N, 3, {size}, {size}\), got \(1, {shape[0]}, {shape[1]}, {shape[2]}\)"
                with pytest.raises(ValueError, match=expected):
                    frontend.predict(np.zeros(shape), timeout=30)
            served = frontend.predict(np.zeros((3, size, size)), timeout=30)
        assert served.logits.shape == (tiny_backbone_config.num_classes,)

    def test_two_workers_share_a_one_plan_cache_bit_identically(
        self, tmp_path, tiny_backbone_config, rng
    ):
        """More batch shapes than cache slots, two threads: each worker's insert
        evicts the other's plan mid-lookup (the ``PlanCache`` race), and every
        batch must still equal direct evaluation of that exact batch."""
        method = _method(tiny_backbone_config)
        registry = ModelRegistry(str(tmp_path))
        _publish_model(registry, method)
        engine = InferenceEngine(registry, method, kernel="tape", plan_cache_size=1)
        engine.install()
        served = []
        predict = engine.predict
        gate = threading.Event()
        entered = [threading.Semaphore(0)]

        def recording_predict(images):
            entered[0].release()
            assert gate.wait(timeout=30)
            batch = predict(images)
            served.append((images, batch.logits))  # list.append is atomic
            return batch

        engine.predict = recording_predict
        size = tiny_backbone_config.image_size
        with ServingFrontEnd(engine, max_batch=4, num_workers=2) as frontend:
            for _ in range(8):
                # Hold each worker on a lone request, queue three more behind
                # them, then let go: the three form at most two batches, so a
                # one-row and a multi-row batch shape meet the one-slot cache
                # in every round.
                gate.clear()
                entered[0] = threading.Semaphore(0)
                futures = []
                for _ in range(2):
                    futures.append(frontend.submit(rng.uniform(-1.0, 1.0, size=(3, size, size))))
                    assert entered[0].acquire(timeout=30)
                futures += [
                    frontend.submit(rng.uniform(-1.0, 1.0, size=(3, size, size)))
                    for _ in range(3)
                ]
                gate.set()
                for future in futures:
                    future.result(timeout=30)
        assert frontend.telemetry()["rejected"] == 0
        assert sum(len(images) for images, _ in served) == 40
        rows = {len(images) for images, _ in served}
        assert 1 in rows and max(rows) > 1
        assert engine._snapshot.plans.evictions > 0
        model = method.build_model()
        model.load_state_dict(registry.load(1, method.payload_codec()).state)
        model.eval()
        with no_grad():
            for images, logits in served:
                direct = np.asarray(method.predict_logits(model, Tensor(images)).data)
                np.testing.assert_array_equal(logits, direct)

    def test_hot_swap_under_load_drops_nothing(self, tmp_path, tiny_backbone_config, rng):
        """Concurrent publisher + clients: zero drops, only manifest versions.

        The publisher waits for each version to be folded in before the next,
        and the clients keep sending until the last one is, so every publish
        is a hot swap under load."""
        method = _method(tiny_backbone_config)
        registry = ModelRegistry(str(tmp_path))
        _publish_model(registry, method)
        engine = InferenceEngine(registry, method)
        engine.install()
        size = tiny_backbone_config.image_size
        publishes = 4
        responses, errors = [], []
        lock = threading.Lock()
        all_folded_in = threading.Event()
        with ServingFrontEnd(engine, max_queue=1024, max_batch=4, num_workers=2) as frontend:
            def publisher():
                try:
                    for _ in range(publishes):  # versions 2..5
                        time.sleep(0.02)
                        version = _publish_model(registry, method).version
                        frontend.notify_publish()
                        deadline = time.monotonic() + 30
                        while engine.current_version != version:
                            if time.monotonic() > deadline:
                                raise TimeoutError(f"version {version} was never folded in")
                            time.sleep(0.001)
                except Exception as error:
                    with lock:
                        errors.append(error)
                finally:
                    all_folded_in.set()

            def client(seed):
                local_rng = np.random.default_rng(seed)
                while not all_folded_in.is_set():
                    try:
                        response = frontend.predict(
                            local_rng.uniform(-1.0, 1.0, size=(3, size, size)), timeout=60
                        )
                    except Exception as error:
                        with lock:
                            errors.append(error)
                        return
                    with lock:
                        responses.append(response)

            threads = [threading.Thread(target=publisher)] + [
                threading.Thread(target=client, args=(seed,)) for seed in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        telemetry = frontend.telemetry()  # after stop(): every batch is counted

        assert not errors
        assert telemetry["total_requests"] == len(responses)  # zero dropped
        known = {info.version for info in registry.list_versions()}
        assert {response.version for response in responses} <= known
        assert telemetry["swap_count"] == publishes
        assert telemetry["current_version"] == 1 + publishes

    def test_constructor_validation(self, tmp_path, tiny_backbone_config):
        engine = self._served_engine(tmp_path, tiny_backbone_config)
        for kwargs in (
            {"max_queue": 0},
            {"max_batch": 0},
            {"num_workers": 0},
        ):
            with pytest.raises(ValueError):
                ServingFrontEnd(engine, **kwargs)


# --------------------------------------------------------------------------- #
# Thread-local autograd state (the serving plane's enabling fix)
# --------------------------------------------------------------------------- #

class TestThreadLocalKernelState:
    def test_tracing_does_not_leak_across_threads(self):
        """A tape active on one thread must not record another thread's ops."""
        tape = tape_mod.Tape()
        recorded_before_worker = []
        worker_error = []

        def worker():
            try:
                assert tape_mod._TRACING_STATE.tape is None  # not inherited
                result = Tensor(np.ones(3)) + Tensor(np.ones(3))
                np.testing.assert_array_equal(result.data, np.full(3, 2.0))
            except Exception as error:  # pragma: no cover - surfaced below
                worker_error.append(error)

        with tape_mod.tracing(tape):
            recorded_before_worker.append(len(tape.records))
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert len(tape.records) == recorded_before_worker[0]  # nothing leaked
        assert not worker_error

    def test_no_grad_is_thread_local(self):
        inner = {}

        def worker():
            x = Tensor(np.ones(2), requires_grad=True)
            inner["requires_grad"] = (x * 2.0).requires_grad

        with no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert inner["requires_grad"] is True  # worker unaffected by main's no_grad

    def test_default_dtype_is_thread_local(self):
        inner = {}

        def worker():
            inner["dtype"] = get_default_dtype()

        with default_dtype(np.dtype(np.float32)):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert get_default_dtype() == np.dtype(np.float32)
        assert inner["dtype"] == np.dtype(np.float64)


# --------------------------------------------------------------------------- #
# checkpoint_keep retention
# --------------------------------------------------------------------------- #

class TestRetention:
    def test_retain_last_policy(self):
        assert retain_last([1, 2, 3], 0) == ([1, 2, 3], [])
        assert retain_last([1, 2, 3], 5) == ([1, 2, 3], [])
        assert retain_last([1, 2, 3, 4], 2) == ([3, 4], [1, 2])
        with pytest.raises(ValueError):
            retain_last([1], -1)

    def test_prune_checkpoints_removes_oldest_resume_positions(self, tmp_path):
        from repro.federated.checkpoint import checkpoint_name

        names = [checkpoint_name(task, rnd) for task in range(2) for rnd in range(3)]
        for name in names:
            (tmp_path / name).write_bytes(b"x")
        (tmp_path / "not-a-checkpoint.txt").write_bytes(b"y")
        removed = prune_checkpoints(str(tmp_path), keep=2)
        assert sorted(os.path.basename(path) for path in removed) == sorted(names[:-2])
        survivors = sorted(
            name for name in os.listdir(tmp_path) if parse_checkpoint_name(name)
        )
        assert survivors == sorted(names[-2:])
        assert (tmp_path / "not-a-checkpoint.txt").exists()  # never touched

    def test_simulation_prunes_checkpoints(self, tiny_spec, tiny_backbone_config, tmp_path):
        config = FederatedConfig(
            increment=replace(
                FederatedConfig().increment, initial_clients=3, increment_per_task=1, seed=7
            ),
            clients_per_round=2,
            rounds_per_task=2,
            local=replace(FederatedConfig().local, local_epochs=1, batch_size=8),
            seed=7,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
            checkpoint_keep=2,
        )
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method("finetune", tiny_backbone_config, num_tasks=2)
        simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
        simulation.run()
        survivors = [name for name in os.listdir(tmp_path) if parse_checkpoint_name(name)]
        assert len(survivors) == 2
        assert simulation.checkpoints_written > 2  # more were written than kept


# --------------------------------------------------------------------------- #
# Simulation integration + config plumbing
# --------------------------------------------------------------------------- #

class TestServingIntegration:
    def _config(self, tmp_path, **kwargs):
        return FederatedConfig(
            increment=replace(
                FederatedConfig().increment, initial_clients=3, increment_per_task=1, seed=7
            ),
            clients_per_round=2,
            rounds_per_task=2,
            local=replace(FederatedConfig().local, local_epochs=1, batch_size=8),
            seed=7,
            registry_dir=str(tmp_path),
            **kwargs,
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_run_publishes_and_serves_bit_identically(
        self, tiny_spec, tiny_backbone_config, tmp_path, rng, dtype
    ):
        config = self._config(
            tmp_path, serve=True, publish_every=1, serve_codec="delta", dtype=dtype
        )
        scenario = DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=2)
        method = build_method("finetune", tiny_backbone_config, num_tasks=2)
        simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
        result = simulation.run()
        registry = ModelRegistry(str(tmp_path))
        versions = registry.list_versions()
        # publish_every=1 over 2 tasks x 2 rounds, plus 2 task boundaries.
        assert [info.version for info in versions] == [1, 2, 3, 4, 5, 6]
        assert result.serving_stats["versions_published"] == 6
        assert result.serving_stats["latest_version"] == 6
        boundary = registry.info(6)
        assert (boundary.task_id, boundary.round_index) == (2, 0)
        assert boundary.accuracy  # task boundaries carry the eval snapshot
        assert versions[0].fingerprint == config_fingerprint(config)
        # Served == direct evaluation of the same version, bit for bit.
        size = tiny_backbone_config.image_size
        images = rng.uniform(-1.0, 1.0, size=(3, 3, size, size))
        engine = InferenceEngine(registry, method, kernel="tape")
        engine.install(6)
        loaded = registry.load(6, method.payload_codec())
        # The version computes in the dtype it was published in: the run's.
        published = {array.dtype for array in loaded.state.values() if array.dtype.kind == "f"}
        assert published == {np.dtype(dtype)}
        with default_dtype(dtype):
            model = method.build_model()
            model.load_state_dict(loaded.state)
        model.eval()
        with default_dtype(dtype), no_grad():
            direct = np.asarray(method.predict_logits(model, Tensor(images)).data)
        assert direct.dtype == np.dtype(dtype)
        for _ in range(3):
            np.testing.assert_array_equal(engine.predict(images).logits, direct)
        # The co-running front end answered without rejects and stopped cleanly.
        assert result.serving_stats["frontend"]["rejected"] == 0
        assert simulation.serving._workers == []

    def test_serving_knobs_do_not_change_training(
        self, tiny_spec, tiny_backbone_config, tmp_path
    ):
        """Publishing + serving is observational: trained numbers are identical."""
        from repro.federated.checkpoint import simulation_state_hash

        def run(config):
            scenario = DomainIncrementalScenario(
                SyntheticDomainDataset(tiny_spec), num_tasks=2
            )
            method = build_method("finetune", tiny_backbone_config, num_tasks=2)
            simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
            simulation.run()
            return simulation_state_hash(simulation)

        base = FederatedConfig(
            increment=replace(
                FederatedConfig().increment, initial_clients=3, increment_per_task=1, seed=7
            ),
            clients_per_round=2,
            rounds_per_task=1,
            local=replace(FederatedConfig().local, local_epochs=1, batch_size=8),
            seed=7,
        )
        served = replace(
            base, serve=True, publish_every=1, registry_dir=str(tmp_path), serve_codec="delta"
        )
        assert run(base) == run(served)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="serve requires registry_dir"):
            FederatedConfig(serve=True)
        with pytest.raises(ValueError, match="publish_every requires registry_dir"):
            FederatedConfig(publish_every=2)
        with pytest.raises(ValueError, match="mode='sync'"):
            FederatedConfig(
                publish_every=1, registry_dir=str(tmp_path), mode="async", buffer_size=0
            )
        with pytest.raises(ValueError, match="checkpoint_keep"):
            FederatedConfig(checkpoint_keep=-1)
        with pytest.raises(ValueError):
            FederatedConfig(serve_codec="no-such-codec", registry_dir=str(tmp_path))

    def test_fingerprint_masks_serving_knobs(self, tmp_path):
        base = FederatedConfig()
        served = FederatedConfig(
            serve=True,
            publish_every=1,
            registry_dir=str(tmp_path),
            serve_codec="quantize8",
            checkpoint_keep=3,
        )
        assert config_fingerprint(base) == config_fingerprint(served)

    def test_run_cache_folds_serving_knobs(self, tmp_path):
        from repro.experiments.runner import _normalize_execution_knobs

        base = FederatedConfig()
        served = FederatedConfig(
            serve=True,
            publish_every=1,
            registry_dir=str(tmp_path),
            serve_codec="delta",
            checkpoint_keep=4,
        )
        assert _normalize_execution_knobs(served) == _normalize_execution_knobs(base)

    def test_scaled_config_passes_serving_knobs(self, tmp_path):
        from repro.experiments.config import ExperimentScale, scaled_config

        config = scaled_config(
            "office_caltech",
            scale=ExperimentScale.TINY,
            serve=True,
            publish_every=1,
            registry_dir=str(tmp_path),
            serve_codec="delta",
            checkpoint_keep=2,
        )
        federated = config.federated
        assert federated.serve and federated.publish_every == 1
        assert federated.registry_dir == str(tmp_path)
        assert federated.serve_codec == "delta"
        assert federated.checkpoint_keep == 2
