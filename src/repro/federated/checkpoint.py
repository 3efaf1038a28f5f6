"""Crash-safe checkpoints: versioned, compressed, atomically written snapshots.

A killed run must resume *bit-for-bit*, so a checkpoint is a complete record
of the simulation's durable state — the server's model version (its one
serialization, the ``identity`` broadcast frame body), transport soft state,
ledger, clock, event log, accuracy matrix, and the fault trace so far.  What
it deliberately does NOT record is anything rebuilt deterministically from the config: datasets,
client schedules, device profiles, and every RNG (``spawn_rng`` draws are pure
functions of ``(seed, labels)``, so there is no generator state to save).

The on-disk format is a small self-validating container::

    RPCK | version u32 | crc32 u32 | zlib(pickle(payload))

written via ``tmp + fsync + os.replace + fsync(directory)``
(:func:`atomic_write`) so a crash mid-write can never leave a truncated file
under the final name — the resume scan either sees the old complete
checkpoint or the new complete checkpoint, never garbage — and the rename is
durable before any older checkpoint is pruned.

File names encode the *resume start position*, not the save position:
``ckpt-t0002-r00003.ckpt`` means "resume at task 2, round 3".  A task-end
checkpoint of task ``t`` is therefore named ``(t + 1, 0)``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

#: 2: RefFiL's method keeps its prompt store as ``store`` and its payloads
#: ride the generic tree codec; version-1 files resume into a method and a
#: payload skeleton this build no longer has, so they are refused.
#: 3: the server entry holds the model version's identity frame body, not an
#: array dict and a skeleton, so version-2 files are refused too.
#: 4: a model's state holds no frozen parameter or positional table; version-3
#: files carry those entries, drifted by averaging, so they are refused.
#: 5: the server entry's frame body carries its table as a deflated JSON blob;
#: a version-4 body pickles the table inside the plan, which
#: :func:`~repro.federated.communication.decode_version` no longer reads.
CHECKPOINT_VERSION = 5
_MAGIC = b"RPCK"
_HEADER = struct.Struct(">4sII")
_NAME_RE = re.compile(r"^ckpt-t(\d{4})-r(\d{5})\.ckpt$")


class CheckpointError(RuntimeError):
    """Base class for checkpoint load/save failures."""


class CheckpointCorruptionError(CheckpointError):
    """The checkpoint file is truncated, mangled, or from an unknown version."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint was written by a run with an incompatible configuration."""


def checkpoint_name(start_task: int, start_round: int) -> str:
    """File name for a checkpoint that resumes at ``(start_task, start_round)``."""
    if start_task < 0 or start_round < 0:
        raise ValueError("checkpoint positions must be non-negative")
    return f"ckpt-t{start_task:04d}-r{start_round:05d}.ckpt"


def parse_checkpoint_name(name: str) -> Optional[Tuple[int, int]]:
    """``(start_task, start_round)`` encoded in ``name``, or None if not a checkpoint."""
    match = _NAME_RE.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the furthest-along checkpoint in ``directory``, or None."""
    if not directory or not os.path.isdir(directory):
        return None
    best: Optional[Tuple[int, int]] = None
    best_name = None
    for name in os.listdir(directory):
        position = parse_checkpoint_name(name)
        if position is None:
            continue
        if best is None or position > best:
            best = position
            best_name = name
    if best_name is None:
        return None
    return os.path.join(directory, best_name)


def retain_last(items: list, keep: int) -> Tuple[list, list]:
    """Split an oldest-first list into ``(kept, pruned)`` under a last-K policy.

    ``keep=0`` retains everything.  This is the single retention rule shared
    by checkpoint pruning and the serving plane's registry: both order their
    artifacts oldest-first and keep only the newest ``keep``.
    """
    if keep < 0:
        raise ValueError("keep must be non-negative (0 retains everything)")
    if keep == 0 or len(items) <= keep:
        return list(items), []
    return list(items[-keep:]), list(items[:-keep])


def prune_checkpoints(directory: str, keep: int) -> list:
    """Delete all but the newest ``keep`` checkpoints; returns removed paths.

    Ordering follows the resume-position encoded in each file name (exactly
    what :func:`latest_checkpoint` maximises), so the pruned prefix is the
    oldest resume points.  Deletion happens strictly after the caller's newest
    checkpoint is durably on disk (each ``os.remove`` is atomic), so a crash
    mid-prune can only leave *extra* old checkpoints, never zero.
    """
    if keep == 0 or not directory or not os.path.isdir(directory):
        return []
    named = []
    for name in os.listdir(directory):
        position = parse_checkpoint_name(name)
        if position is not None:
            named.append((position, name))
    named.sort()
    _, pruned = retain_last([name for _, name in named], keep)
    removed = []
    for name in pruned:
        path = os.path.join(directory, name)
        try:
            os.remove(path)
        except FileNotFoundError:
            continue
        removed.append(path)
    return removed


def atomic_write(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data``: tmp + fsync + rename + directory fsync.

    The rename itself is only durable once the parent directory is fsynced;
    without that, a power loss could persist a later prune's unlinks but not
    the rename, leaving fewer retained files than promised.  Platforms that
    cannot open a directory (Windows) skip the directory fsync.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def save_checkpoint(path: str, payload: Dict[str, Any], version: Optional[int] = None) -> None:
    """Atomically, durably write ``payload`` under header ``version`` (default CHECKPOINT_VERSION)."""
    blob = zlib.compress(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    atomic_write(path, _HEADER.pack(_MAGIC, version or CHECKPOINT_VERSION, zlib.crc32(blob)) + blob)


def load_checkpoint(path: str, version: Optional[int] = None) -> Dict[str, Any]:
    """Read and validate a file :func:`save_checkpoint` wrote under the same ``version``."""
    expected = version or CHECKPOINT_VERSION
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _HEADER.size:
        raise CheckpointCorruptionError(f"checkpoint {path!r} is truncated ({len(raw)} bytes)")
    magic, version, crc = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CheckpointCorruptionError(f"checkpoint {path!r} has bad magic {magic!r}")
    if version != expected:
        raise CheckpointCorruptionError(
            f"checkpoint {path!r} has version {version}, expected {expected}"
        )
    blob = raw[_HEADER.size :]
    if zlib.crc32(blob) != crc:
        raise CheckpointCorruptionError(f"checkpoint {path!r} failed its checksum")
    try:
        payload = pickle.loads(zlib.decompress(blob))
    except Exception as error:  # zlib.error, pickle errors, EOFError, ...
        raise CheckpointCorruptionError(f"checkpoint {path!r} failed to decode: {error}") from error
    if not isinstance(payload, dict):
        raise CheckpointCorruptionError(f"checkpoint {path!r} holds {type(payload).__name__}, not a dict")
    return payload


def config_fingerprint(config: Any) -> str:
    """Digest of everything in the config that affects simulation trajectory.

    Which knobs that is comes from their declarations — see
    :meth:`repro.federated.config.FederatedConfig.fingerprint`.
    """
    return config.fingerprint()


def simulation_state_hash(simulation: Any) -> str:
    """Order-stable digest of a simulation's trainable + evaluation state.

    Used by the resume tests: an interrupted-and-resumed run and an
    uninterrupted run must produce identical hashes at the same point.
    """
    import numpy as np

    digest = hashlib.sha256()
    for key in sorted(simulation.server.global_state):
        array = np.ascontiguousarray(simulation.server.global_state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.tobytes())
    matrix = simulation.evaluator.accuracy_matrix._matrix
    digest.update(np.ascontiguousarray(matrix).tobytes())
    digest.update(np.asarray(simulation.round_losses, dtype=np.float64).tobytes())
    digest.update(str(simulation.server.round_counter).encode("utf-8"))
    return digest.hexdigest()


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointMismatchError",
    "checkpoint_name",
    "parse_checkpoint_name",
    "latest_checkpoint",
    "retain_last",
    "prune_checkpoints",
    "atomic_write",
    "save_checkpoint",
    "load_checkpoint",
    "config_fingerprint",
    "simulation_state_hash",
]
