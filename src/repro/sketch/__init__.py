"""Probabilistic counting sketches.

* :class:`CountMinSketch` -- bounded-memory label/signature counters behind
  ``EngineConfig(sketch_stats=...)``.

Every structure hashes with explicit seeds (never builtin ``hash()``), is
approximate only in the false-positive direction, and round-trips its cell
layout byte-exactly through ``state_dict()`` / ``from_state()`` so
checkpoint/restore replays future probes identically.  The differential
suite in ``tests/test_sketch.py`` pins the governing contract: sketch-on
engine runs are byte-for-byte identical to sketch-off runs.
"""

from .countmin import CountMinSketch

__all__ = [
    "CountMinSketch",
]
