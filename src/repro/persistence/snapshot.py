"""Versioned, checksummed, atomically-written snapshot container.

A snapshot is one file holding a *manifest line* followed by a sequence of
named sections:

* line 1 -- a JSON manifest: magic string, format version, the snapshot
  *kind* (which engine class wrote it), a monotone *epoch* (bumped on every
  checkpoint of the same engine, so operators can pick the newest of a
  directory of autosaves), and a table of sections with byte lengths and
  SHA-256 digests;
* then each section's JSON payload, concatenated in manifest order.

The format is deliberately dependency-free and explicit about failure:

* **Atomicity** -- :func:`write_snapshot` writes to a temporary file in the
  same directory, flushes and ``fsync``\\ s it, then ``os.replace``\\ s it over
  the destination (and fsyncs the directory, best effort).  A crash during
  checkpointing leaves either the previous complete snapshot or none --
  never a torn file under the final name.
* **Torn/corrupt reads are typed errors** -- every way a snapshot can be
  damaged (missing manifest, truncated section, checksum mismatch, trailing
  garbage, undecodable payload) raises :class:`SnapshotCorruptError`;
  a snapshot of a format this build cannot read (anything but 1 to
  :data:`SNAPSHOT_FORMAT_VERSION`) raises :class:`SnapshotVersionError`.
  ``restore()`` therefore either returns a fully-reconstructed engine or
  raises -- there is no silent partial load.

Payloads must be JSON-serialisable values (the engine state codecs in
:mod:`repro.persistence.state` guarantee that for engine-owned state;
stream *attribute values* must themselves be JSON-safe -- the same
contract as :meth:`repro.streaming.edge_stream.EdgeStream.to_jsonl`).
Non-finite floats (``Infinity``/``-Infinity``) are allowed; several engine
clocks legitimately sit at ``-inf``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotCorruptError",
    "SnapshotVersionError",
    "RemovedOptionError",
    "write_snapshot",
    "read_snapshot",
    "read_manifest",
]

SNAPSHOT_MAGIC = "streamworks-snapshot"
#: The shape :mod:`repro.persistence.state` writes and reads.  Formats 1
#: to 3 are read too; ``restore()`` upgrades their sections first.
SNAPSHOT_FORMAT_VERSION = 4


class SnapshotError(Exception):
    """Base class for snapshot write/read failures."""


class SnapshotCorruptError(SnapshotError):
    """The snapshot file is damaged (torn write, truncation, bit rot).

    Raised for *any* structural damage -- a restore never silently loads a
    partial snapshot.  The message names the first damaged part.
    """


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible format version."""


class RemovedOptionError(SnapshotError):
    """The snapshot sets an option this build removed, and dropping it would change the events.

    The message names the option and the one behaviour that replaced it.
    """


def _encode_section(name: str, payload: Any) -> bytes:
    try:
        return json.dumps(payload, separators=(",", ":"), allow_nan=True).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise SnapshotError(
            f"snapshot section {name!r} holds a value that is not JSON-serialisable: "
            f"{error} (stream/vertex attribute values must be JSON-safe to checkpoint)"
        ) from error


def write_snapshot(
    path: str, kind: str, epoch: int, sections: Mapping[str, Any]
) -> Dict[str, Any]:
    """Atomically write ``sections`` (name -> JSON-able payload) to ``path``.

    Returns the manifest that was written.  The write goes through a
    temporary sibling file + ``fsync`` + ``os.replace`` so a crash mid-write
    can never leave a torn file under ``path``.
    """
    blobs: List[Tuple[str, bytes]] = [
        (name, _encode_section(name, payload)) for name, payload in sections.items()
    ]
    manifest: Dict[str, Any] = {
        "magic": SNAPSHOT_MAGIC,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "kind": kind,
        "epoch": int(epoch),
        "sections": [
            {"name": name, "length": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}
            for name, blob in blobs
        ],
    }
    manifest_line = json.dumps(manifest, separators=(",", ":")).encode("utf-8") + b"\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(manifest_line)
            for _, blob in blobs:
                handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # never leave the temporary file behind on a failed write
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:  # durability of the rename itself (best effort: not all platforms allow it)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    return manifest


def _parse_manifest(data: bytes, path: str) -> Tuple[Dict[str, Any], bytes]:
    newline = data.find(b"\n")
    if newline < 0:
        raise SnapshotCorruptError(f"{path}: no manifest line (file truncated or empty)")
    try:
        manifest = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotCorruptError(f"{path}: manifest line is not valid JSON: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError(f"{path}: not a StreamWorks snapshot (bad magic)")
    return manifest, data[newline + 1 :]


def read_manifest(path: str) -> Dict[str, Any]:
    """Read and validate only the manifest line (cheap epoch/kind inspection)."""
    with open(path, "rb") as handle:
        head = handle.readline()
    if not head.endswith(b"\n"):
        raise SnapshotCorruptError(f"{path}: no manifest line (file truncated or empty)")
    manifest, _ = _parse_manifest(head, path)
    return manifest


def read_snapshot(
    path: str, kind: Optional[str] = None
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Read, verify and decode a snapshot; return ``(manifest, sections)``.

    Every integrity violation raises :class:`SnapshotCorruptError`; a
    format version outside 1 to :data:`SNAPSHOT_FORMAT_VERSION` raises
    :class:`SnapshotVersionError`;
    a ``kind`` mismatch (restoring a sharded snapshot through the single
    engine, or vice versa) raises plain :class:`SnapshotError` naming both
    kinds.  Sections come back as written: an older format's are
    upgraded by the caller (:func:`repro.persistence.upgrade.upgrade`).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    manifest, body = _parse_manifest(data, path)
    version = manifest.get("format_version")
    if type(version) is not int or not 1 <= version <= SNAPSHOT_FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{path}: snapshot format version {version!r} is not supported by this "
            f"build (it reads 1 to {SNAPSHOT_FORMAT_VERSION}); re-create the snapshot "
            f"with checkpoint() from a matching version"
        )
    if kind is not None and manifest.get("kind") != kind:
        raise SnapshotError(
            f"{path}: snapshot kind {manifest.get('kind')!r} does not match the "
            f"restoring engine ({kind!r}); use the engine class that wrote it"
        )
    entries = manifest.get("sections")
    if not isinstance(entries, list):
        raise SnapshotCorruptError(f"{path}: manifest has no section table")
    sections: Dict[str, Any] = {}
    offset = 0
    for entry in entries:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or not isinstance(entry.get("length"), int)
            or not isinstance(entry.get("sha256"), str)
        ):
            raise SnapshotCorruptError(f"{path}: malformed section table entry {entry!r}")
        name, length = entry["name"], entry["length"]
        blob = body[offset : offset + length]
        offset += length
        if len(blob) != length:
            raise SnapshotCorruptError(
                f"{path}: section {name!r} truncated ({len(blob)} of {length} bytes)"
            )
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise SnapshotCorruptError(f"{path}: section {name!r} checksum mismatch")
        try:
            sections[name] = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotCorruptError(
                f"{path}: section {name!r} payload is not valid JSON: {error}"
            ) from error
    if offset != len(body):
        raise SnapshotCorruptError(
            f"{path}: {len(body) - offset} trailing bytes after the last section"
        )
    return manifest, sections
