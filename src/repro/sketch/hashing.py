"""Deterministic seeded hashing shared by every sketch in this package.

Sketches in :mod:`repro.sketch` feed *observable* behaviour (counters,
snapshot payloads) that must be byte-for-byte reproducible across processes
and across checkpoint/restore.  Python's builtin ``hash()`` is
``PYTHONHASHSEED``-dependent and therefore banned here (repro-lint enforces
this for the whole ``sketch`` scope); indexes come from ``hashlib.blake2b``
keyed with the seed, whose independent output slices give the decorrelated
rows count-min needs.  That is a fully specified function of
``(data, seed)`` with no process state, so every sketch's cell layout
replays identically after a restore.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

__all__ = ["blake_row_indexes", "seed_key"]


def seed_key(seed: int) -> bytes:
    """Render ``seed`` as the 8-byte key blake2b expects."""
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")


def blake_row_indexes(data: bytes, seed: int, rows: int, modulus: int) -> Tuple[int, ...]:
    """Return ``rows`` decorrelated indexes in ``[0, modulus)`` for ``data``.

    One keyed blake2b digest is sliced into independent 4-byte windows, one
    per row -- the standard way to drive a count-min sketch from a single
    wide hash without per-row rehashing.
    """
    digest = hashlib.blake2b(data, digest_size=4 * rows, key=seed_key(seed)).digest()
    return tuple(
        int.from_bytes(digest[4 * row : 4 * row + 4], "big") % modulus for row in range(rows)
    )
