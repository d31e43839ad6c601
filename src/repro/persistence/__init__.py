"""Crash-consistent checkpoint/restore for the StreamWorks engines.

The partial-match store *is* the algorithm's value: rebuilding it by
replaying the lateness horizon's worth of stream is quadratic in window
size, so a restart must resume from durable state instead.  This package
provides

* :mod:`repro.persistence.snapshot` -- the versioned, checksummed,
  atomically-written snapshot container (typed corruption errors, never a
  silent partial load);
* :mod:`repro.persistence.state` -- exact whole-engine state capture and
  reconstruction for :class:`~repro.core.engine.StreamWorksEngine` and
  :class:`~repro.core.sharded.ShardedStreamEngine`.

Users normally go through ``engine.checkpoint(path)`` /
``StreamWorksEngine.restore(path)`` (and the sharded equivalents), or set
``EngineConfig(checkpoint_every=N, checkpoint_path=...)`` for batch-cadence
autosaves.  The resume contract -- restore + remaining stream equals the
uninterrupted run byte for byte -- is held by the crash-at-every-boundary
differential suite in ``tests/test_checkpoint.py``.
"""

from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    RemovedOptionError,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    read_manifest,
    read_snapshot,
    write_snapshot,
)
from .state import (
    ENGINE_KIND,
    SHARDED_KIND,
    engine_sections,
    load_engine_sections,
    load_sharded_sections,
    sharded_sections,
)

__all__ = [
    "ENGINE_KIND",
    "SHARDED_KIND",
    "SNAPSHOT_FORMAT_VERSION",
    "SNAPSHOT_MAGIC",
    "RemovedOptionError",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotVersionError",
    "engine_sections",
    "load_engine_sections",
    "load_sharded_sections",
    "read_manifest",
    "read_snapshot",
    "sharded_sections",
    "write_snapshot",
]
