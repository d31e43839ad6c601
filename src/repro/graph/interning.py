"""Stream-boundary intern table: labels and attribute names to dense ints.

The engine's batched fast path keys its route plans on label ids, so
routing is integer compares instead of repeated string hashing.  An :class:`InternTable` assigns every distinct string a dense id
in first-seen order, so:

* ids are deterministic for a given admission order (the engine interns
  query vocabulary at registration, then the endpoint vertex labels of
  routed records in ingest order; it only *looks up* stream edge labels, so
  an edge label no query names is never admitted);
* the table round-trips through snapshots (``state_dict`` serialises the
  labels *in id order*; ``from_state`` re-interns them, reproducing the
  exact ids);
* a table restored from a snapshot older than the table -- which carries
  no interning section -- is rebuilt deterministically by re-interning the
  restored graph's edges in insertion order, because the property graph
  itself serialises edges in insertion order.

Ids are engine-internal: nothing about event output depends on them, only
internal consistency within one engine's lifetime matters.  The sharded
parent still pushes its query-label ids to every shard at registration
(:meth:`adopt`) so the per-shard tables agree on the hot query labels;
labels admitted later (a shard's own registrations, or stream labels in a
table restored from an older snapshot) may receive different ids on
different shards, which is harmless for the same reason.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

__all__ = ["InternTable"]


class InternTable:
    """Dense string interner with first-seen-order ids."""

    __slots__ = ("_ids", "_labels")

    def __init__(self) -> None:
        # derived index over _labels; from_state rebuilds it by re-interning
        self._ids: Dict[str, int] = {}  # repro-lint: ignore[snapshot-coverage]
        self._labels: List[str] = []

    def intern(self, label: str) -> int:
        """Return the dense id for ``label``, admitting it when unknown."""
        ident = self._ids.get(label)
        if ident is None:
            ident = len(self._labels)
            self._ids[label] = ident
            self._labels.append(label)
        return ident

    def lookup(self, label: str) -> Optional[int]:
        """Return the id for ``label`` without admitting it (``None`` = unknown)."""
        return self._ids.get(label)

    def label(self, ident: int) -> str:
        """Return the label for a dense id (raises ``IndexError`` when unknown)."""
        if ident < 0:
            raise IndexError(f"intern id {ident} out of range")
        return self._labels[ident]

    def intern_all(self, labels: Iterable[str]) -> List[int]:
        """Intern a batch of labels, returning their ids in order."""
        return [self.intern(label) for label in labels]

    def adopt(self, labels: Iterable[str]) -> None:
        """Intern ``labels`` in the given order (parent-to-shard id alignment).

        Called on a fresh (or prefix-consistent) table this reproduces the
        caller's ids exactly; labels already interned keep their ids, so a
        conflicting adoption order surfaces as differing ids rather than
        corruption.
        """
        for label in labels:
            self.intern(label)

    def labels(self) -> List[str]:
        """Return the interned labels in id order (the :meth:`adopt` wire format)."""
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._ids

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, List[str]]:
        """Serialise the table (labels in id order; ids are implicit)."""
        return {"labels": list(self._labels)}

    @classmethod
    def from_state(cls, state: Mapping[str, List[str]]) -> "InternTable":
        """Rebuild a table from :meth:`state_dict` output, ids preserved."""
        table = cls()
        for label in state["labels"]:
            table.intern(label)
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InternTable({len(self._labels)} labels)"
