"""The serving plane: versioned model registry + concurrent online inference.

Training produces models; this package consumes them.  Three layers, each
only reaching *down* (service -> engine -> registry -> the federated planes'
public helpers), never sideways into plane internals:

* :mod:`repro.serving.registry` — :class:`ModelRegistry`: named, versioned,
  codec-compressed model snapshots (model params + method payload through the
  method's own ``payload_codec()``) in CRC-checked ``RPCK`` containers, with a
  queryable JSON manifest, atomic writes and oldest-first retention.
* :mod:`repro.serving.engine` — :class:`InferenceEngine`: loads a registry
  version into an immutable snapshot, answers batched ``predict`` requests
  (eagerly, or through ``tape``-compiled forward plans for repeat shapes),
  and hot-swaps to a newer version atomically between batches.
* :mod:`repro.serving.service` — :class:`ServingFrontEnd`: bounded request
  queue, micro-batching, worker threads, backpressure and per-version
  latency/throughput telemetry.

The registry builds on :mod:`repro.federated`'s checkpoint and wire helpers,
so nothing in that package imports this one at module level: the simulation
imports it only for a run that publishes (``registry_dir``).
"""

from repro.serving.engine import InferenceEngine, ServedBatch
from repro.serving.registry import (
    LoadedVersion,
    ModelRegistry,
    RegistryCorruptionError,
    RegistryError,
    UnknownVersionError,
    VersionInfo,
)
from repro.serving.service import QueueFullError, ServedResponse, ServingFrontEnd

__all__ = [
    "InferenceEngine",
    "LoadedVersion",
    "ModelRegistry",
    "QueueFullError",
    "RegistryCorruptionError",
    "RegistryError",
    "ServedBatch",
    "ServedResponse",
    "ServingFrontEnd",
    "UnknownVersionError",
    "VersionInfo",
]
