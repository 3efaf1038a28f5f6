"""Versioned model registry: published snapshots as queryable, durable versions.

A checkpoint answers "how do I resume this run"; a registry version answers
"what model should I serve".  The two share their storage discipline — the
same self-validating ``RPCK`` container (magic, format version, CRC32,
zlib-compressed pickle) written through
:func:`~repro.federated.checkpoint.atomic_write` (tmp + fsync + rename +
directory fsync) — but a
version additionally carries a queryable identity: a monotonically increasing
version id, the run position (task/round) it was published at, the publishing
run's config fingerprint, an accuracy snapshot, the wire codec it was
compressed with, and its byte size.  All of that lives in ``manifest.json``
next to the version files, itself written atomically, so ``list_versions()``
and ``latest()`` are one small JSON read — no version payload is touched until
``load()``.

Model state and method payload travel exactly as they do on the wire and in
checkpoints: flattened into one namespaced ``name -> ndarray`` dict through
the method's ``payload_codec()``, then encoded by an
:class:`~repro.federated.communication.ArrayCodec` (``identity``/``delta``
lossless; ``quantize8``/``quantize16``/``topk`` trade fidelity for bytes — a
version stores the *encoded* plan, so what ``load()`` returns is what every
consumer of that version sees, deterministically).

Retention follows the checkpoint plane's policy
(:func:`repro.federated.checkpoint.retain_last`): keep the newest K versions,
prune oldest-first, after the new version is durably on disk.  Version ids
survive pruning — ``next_version`` persists in the manifest, so ``latest()``
is monotonic for the registry's whole lifetime.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.federated.checkpoint import (
    CheckpointCorruptionError,
    atomic_write,
    load_checkpoint,
    retain_last,
    save_checkpoint,
)
from repro.federated.communication import (
    PayloadCodec,
    TreePayloadCodec,
    build_codec,
    flatten_message,
    split_message,
)

#: 2: version files hold columnar codec plans (``(table, columns)``); format-1
#: files hold per-array plans no codec here decodes and must be republished.
#: 3: a version's state holds no frozen tokenizer entries; format-2 files carry
#: them (drifted by averaging) and must be republished.
REGISTRY_FORMAT = 3
_MANIFEST_NAME = "manifest.json"


class RegistryError(RuntimeError):
    """Base class for registry failures."""


class RegistryCorruptionError(RegistryError):
    """A version file or the manifest is truncated, mangled, or inconsistent."""


class UnknownVersionError(RegistryError):
    """The requested version id is not (or no longer) in the manifest."""


def version_filename(version: int) -> str:
    """File name of a published version (``version-000042.rpv``)."""
    if version < 1:
        raise ValueError("version ids start at 1")
    return f"version-{version:06d}.rpv"


@dataclass(frozen=True)
class VersionInfo:
    """One manifest entry: everything queryable about a version without loading it."""

    version: int
    name: str
    task_id: int
    round_index: int
    fingerprint: str
    codec: str
    num_bytes: int
    accuracy: Dict[str, float] = field(default_factory=dict)

    @property
    def filename(self) -> str:
        return version_filename(self.version)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "name": self.name,
            "task_id": self.task_id,
            "round_index": self.round_index,
            "fingerprint": self.fingerprint,
            "codec": self.codec,
            "num_bytes": self.num_bytes,
            "accuracy": dict(self.accuracy),
        }

    @staticmethod
    def from_json(entry: Dict[str, Any]) -> "VersionInfo":
        try:
            return VersionInfo(
                version=int(entry["version"]),
                name=str(entry["name"]),
                task_id=int(entry["task_id"]),
                round_index=int(entry["round_index"]),
                fingerprint=str(entry["fingerprint"]),
                codec=str(entry["codec"]),
                num_bytes=int(entry["num_bytes"]),
                accuracy={str(k): float(v) for k, v in entry.get("accuracy", {}).items()},
            )
        except (KeyError, TypeError, ValueError) as error:
            raise RegistryCorruptionError(f"malformed manifest entry: {error}") from error


@dataclass(frozen=True)
class LoadedVersion:
    """A version's decoded content: model state dict plus method payload."""

    info: VersionInfo
    state: Dict[str, np.ndarray]
    payload: Any


class ModelRegistry:
    """Publishes and loads named, versioned model snapshots in one directory.

    Separate instances over the same directory share state through the
    on-disk manifest: every query re-reads it, so a publisher (the training
    run) and a consumer (an inference engine in another thread or process)
    stay consistent without any in-memory coupling.  ``keep=0`` retains every
    version; a positive ``keep`` prunes oldest-first after each publish —
    the same last-K policy the checkpoint plane applies to ``ckpt-*`` files.
    """

    def __init__(self, directory: str, keep: int = 0) -> None:
        if not directory:
            raise ValueError("registry directory must be non-empty")
        if keep < 0:
            raise ValueError("keep must be non-negative (0 retains every version)")
        self.directory = directory
        self.keep = keep

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST_NAME)

    def _read_manifest(self) -> Dict[str, Any]:
        path = self.manifest_path
        if not os.path.exists(path):
            return {"format": REGISTRY_FORMAT, "next_version": 1, "versions": []}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (json.JSONDecodeError, OSError) as error:
            raise RegistryCorruptionError(
                f"registry manifest {path!r} failed to parse: {error}"
            ) from error
        if not isinstance(manifest, dict) or "versions" not in manifest:
            raise RegistryCorruptionError(f"registry manifest {path!r} has no versions list")
        return manifest

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        atomic_write(self.manifest_path, text.encode("utf-8"))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def list_versions(self) -> List[VersionInfo]:
        """Every retained version, oldest first (version ids strictly increase)."""
        entries = [VersionInfo.from_json(e) for e in self._read_manifest()["versions"]]
        return sorted(entries, key=lambda info: info.version)

    def latest(self) -> Optional[VersionInfo]:
        """The newest retained version, or None for an empty registry."""
        versions = self.list_versions()
        return versions[-1] if versions else None

    def info(self, version: int) -> VersionInfo:
        """Manifest entry of ``version``; raises :class:`UnknownVersionError`."""
        for entry in self.list_versions():
            if entry.version == version:
                return entry
        raise UnknownVersionError(
            f"version {version} is not in the registry at {self.directory!r}"
        )

    # ------------------------------------------------------------------ #
    # Publish / load
    # ------------------------------------------------------------------ #
    def publish(
        self,
        name: str,
        state: Dict[str, np.ndarray],
        payload: Any = None,
        payload_codec: Optional[PayloadCodec] = None,
        *,
        codec: str = "identity",
        task_id: int = 0,
        round_index: int = 0,
        fingerprint: str = "",
        accuracy: Optional[Dict[str, float]] = None,
    ) -> VersionInfo:
        """Durably publish one snapshot and return its manifest entry.

        The version file lands first (durably, see
        :func:`~repro.federated.checkpoint.atomic_write`), the manifest
        second — a crash between the two leaves an orphaned version file that
        no manifest references, never a manifest pointing at garbage.
        Retention prunes only after both writes, so the newest version is
        always on disk.
        """
        codec_impl = build_codec(codec)  # validates the spec before any IO
        payload_codec = payload_codec if payload_codec is not None else TreePayloadCodec()
        arrays, skeleton = flatten_message(state, payload, payload_codec)
        manifest = self._read_manifest()
        version = int(manifest.get("next_version", 1))
        path = os.path.join(self.directory, version_filename(version))
        save_checkpoint(
            path,
            {
                "registry_format": REGISTRY_FORMAT,
                "version": version,
                "name": name,
                "codec": codec,
                "plan": codec_impl.encode(arrays),
                "skeleton": skeleton,
            },
            version=REGISTRY_FORMAT,
        )
        info = VersionInfo(
            version=version,
            name=name,
            task_id=task_id,
            round_index=round_index,
            fingerprint=fingerprint,
            codec=codec,
            num_bytes=os.path.getsize(path),
            accuracy=dict(accuracy) if accuracy else {},
        )
        manifest["format"] = REGISTRY_FORMAT
        manifest["next_version"] = version + 1
        manifest["versions"] = manifest["versions"] + [info.to_json()]
        self._write_manifest(manifest)
        if self.keep > 0:
            self._prune(manifest)
        return info

    def _prune(self, manifest: Dict[str, Any]) -> None:
        entries = sorted(manifest["versions"], key=lambda e: int(e["version"]))
        kept, pruned = retain_last(entries, self.keep)
        if not pruned:
            return
        # Manifest first: a reader must never resolve an entry whose file a
        # concurrent prune is about to delete.
        manifest["versions"] = kept
        self._write_manifest(manifest)
        for entry in pruned:
            try:
                os.remove(os.path.join(self.directory, version_filename(int(entry["version"]))))
            except FileNotFoundError:
                pass

    def load(
        self, version: Optional[int] = None, payload_codec: Optional[PayloadCodec] = None
    ) -> LoadedVersion:
        """Load (and CRC-validate) one version's model state and payload.

        ``version=None`` loads the latest.  ``payload_codec`` must match the
        one the snapshot was published through (the publishing method's own
        codec); the default generic tree codec matches the publish default.
        Truncated, mangled or inconsistent files raise
        :class:`RegistryCorruptionError` — garbage is never served.
        """
        if version is None:
            newest = self.latest()
            if newest is None:
                raise UnknownVersionError(f"registry at {self.directory!r} is empty")
            version = newest.version
        info = self.info(version)
        path = os.path.join(self.directory, info.filename)
        try:
            blob = load_checkpoint(path, version=REGISTRY_FORMAT)
        except FileNotFoundError as error:
            raise RegistryCorruptionError(
                f"version {version} is in the manifest but its file is missing: {path!r}"
            ) from error
        except CheckpointCorruptionError as error:
            raise RegistryCorruptionError(str(error)) from error
        if blob.get("registry_format") != REGISTRY_FORMAT:
            raise RegistryCorruptionError(
                f"version file {path!r} is registry format {blob.get('registry_format')!r}, "
                f"this build reads format {REGISTRY_FORMAT}; republish the version"
            )
        if blob.get("version") != version:
            raise RegistryCorruptionError(
                f"version file {path!r} claims version {blob.get('version')!r}, "
                f"manifest says {version}"
            )
        payload_codec = payload_codec if payload_codec is not None else TreePayloadCodec()
        try:
            codec_impl = build_codec(blob["codec"])
            message = codec_impl.decode_packed(blob["plan"])
            state, payload = split_message(message, blob["skeleton"], payload_codec)
        except (KeyError, ValueError, TypeError) as error:
            raise RegistryCorruptionError(
                f"version file {path!r} failed to decode: {error}"
            ) from error
        return LoadedVersion(info=info, state=state, payload=payload)


__all__ = [
    "REGISTRY_FORMAT",
    "LoadedVersion",
    "ModelRegistry",
    "RegistryCorruptionError",
    "RegistryError",
    "UnknownVersionError",
    "VersionInfo",
    "version_filename",
]
