"""Probabilistic membership sketches with exactness-preserving fronts.

This package accelerates the engine's hot membership questions -- "have we
reported this match?", "how often does this label/signature occur?" -- with
small, deterministic sketches:

* :class:`CuckooFilter` -- fronts the bounded dedup store; fingerprints
  support exact deletion on eviction.
* :class:`CountMinSketch` -- bounded-memory label/signature counters behind
  ``EngineConfig(sketch_stats=...)``.
* :class:`DedupMemory` -- cuckoo front + bounded exact confirm store with
  deterministic (anchor, seq) eviction.

Every structure hashes with explicit seeds (never builtin ``hash()``), is
approximate only in the false-positive direction, and round-trips its cell
layout byte-exactly through ``state_dict()`` / ``from_state()`` so
checkpoint/restore replays future probes identically.  The differential
suite in ``tests/test_sketch.py`` pins the governing contract: sketch-on
engine runs are byte-for-byte identical to sketch-off runs.
"""

from .countmin import CountMinSketch
from .cuckoo import CuckooFilter
from .dedup import DedupMemory

__all__ = [
    "CountMinSketch",
    "CuckooFilter",
    "DedupMemory",
]
