"""Deterministic seeded hashing shared by every sketch in this package.

All sketches in :mod:`repro.sketch` sit on hot membership paths whose
*observable* behaviour (events, counters, snapshot payloads) must be
byte-for-byte reproducible across processes and across checkpoint/restore.
Python's builtin ``hash()`` is ``PYTHONHASHSEED``-dependent and therefore
banned here (repro-lint enforces this for the whole ``sketch`` scope); the
helpers below derive every index from either

* :func:`zlib.crc32` seeded through its running-value parameter -- one C call
  per probe, cheap enough for the per-match dedup front, or
* ``hashlib.blake2b`` keyed with the seed -- slower but with independent
  output slices, used where multiple decorrelated rows are required
  (count-min).

Both are fully specified functions of ``(data, seed)`` with no process
state, so every filter's cell layout replays identically after a restore.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Tuple

__all__ = ["crc_hash", "blake_row_indexes", "seed_key"]

_MASK32 = 0xFFFFFFFF


def crc_hash(data: bytes, seed: int) -> int:
    """Return a deterministic 32-bit hash of ``data`` under ``seed``."""
    return zlib.crc32(data, seed & _MASK32) & _MASK32


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
