"""Vertex/edge type distributions and relationship-signature counts.

The second family of summary statistics from paper section 4.3: how frequent
each vertex type, edge type, and typed relationship *signature*
``(source label, edge label, target label)`` is in the data stream.  The
signature counts are the work-horse of selectivity estimation: the expected
number of data edges that can bind a query edge is (to first order) the count
of its signature.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..graph.types import Edge

__all__ = ["LabelDistribution", "SignatureDistribution", "EdgeSignature"]

#: ``(source vertex label, edge label, target vertex label)``
EdgeSignature = Tuple[Optional[str], Optional[str], Optional[str]]


class LabelDistribution:
    """Frequency distribution over a set of labels (vertex types or edge types)."""

    def __init__(self, counts: Optional[Mapping[str, int]] = None):
        self._counts: Counter = Counter(counts or {})

    def observe(self, label: str, count: int = 1) -> None:
        """Record ``count`` occurrences of ``label``."""
        self._counts[label] += count

    def retract(self, label: str, count: int = 1) -> None:
        """Remove ``count`` occurrences of ``label`` (floors at zero)."""
        self._counts[label] -= count
        if self._counts[label] <= 0:
            del self._counts[label]

    def count(self, label: str) -> int:
        """Return the number of occurrences of ``label``."""
        return self._counts.get(label, 0)

    def total(self) -> int:
        """Return the total number of observations."""
        return sum(self._counts.values())

    def frequency(self, label: str) -> float:
        """Return the relative frequency of ``label`` in [0, 1]."""
        total = self.total()
        if total == 0:
            return 0.0
        return self._counts.get(label, 0) / total

    def labels(self) -> Iterable[str]:
        """Return the labels seen so far."""
        return self._counts.keys()

    def most_common(self, k: Optional[int] = None):
        """Return the ``k`` most common ``(label, count)`` pairs."""
        return self._counts.most_common(k)

    def rarest(self, k: Optional[int] = None):
        """Return the ``k`` least common ``(label, count)`` pairs."""
        ordered = sorted(self._counts.items(), key=lambda item: item[1])
        return ordered if k is None else ordered[:k]

    def to_dict(self) -> Dict[str, int]:
        """Return a plain ``{label: count}`` dict."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabelDistribution({dict(self._counts)!r})"


class SignatureDistribution:
    """Counts of typed relationship signatures ``(src label, edge label, dst label)``."""

    def __init__(self, counts: Optional[Mapping[EdgeSignature, int]] = None):
        self._counts: Counter = Counter(counts or {})

    def observe(self, source_label: str, edge_label: str, target_label: str, count: int = 1) -> None:
        """Record occurrences of a fully-typed relationship."""
        self._counts[(source_label, edge_label, target_label)] += count

    def observe_edge(self, edge: Edge, source_label: str, target_label: str) -> None:
        """Record a data edge given its endpoint labels."""
        self.observe(source_label, edge.label, target_label)

    def retract(self, source_label: str, edge_label: str, target_label: str, count: int = 1) -> None:
        """Remove occurrences (floors at zero)."""
        key = (source_label, edge_label, target_label)
        self._counts[key] -= count
        if self._counts[key] <= 0:
            del self._counts[key]

    def count(self, signature: EdgeSignature) -> int:
        """Return the count matching a (possibly wildcarded) signature.

        ``None`` components act as wildcards: ``(None, "connectsTo", None)``
        sums over all endpoint label combinations.
        """
        source_label, edge_label, target_label = signature
        if source_label is not None and edge_label is not None and target_label is not None:
            return self._counts.get((source_label, edge_label, target_label), 0)
        total = 0
        for (src, lbl, dst), count in self._counts.items():
            if source_label is not None and src != source_label:
                continue
            if edge_label is not None and lbl != edge_label:
                continue
            if target_label is not None and dst != target_label:
                continue
            total += count
        return total

    def total(self) -> int:
        """Return the total number of observed edges."""
        return sum(self._counts.values())

    def frequency(self, signature: EdgeSignature) -> float:
        """Return the relative frequency of a signature in [0, 1]."""
        total = self.total()
        if total == 0:
            return 0.0
        return self.count(signature) / total

    def signatures(self) -> Iterable[Tuple[str, str, str]]:
        """Return the fully-typed signatures seen so far."""
        return self._counts.keys()

    def most_common(self, k: Optional[int] = None):
        """Return the ``k`` most common ``(signature, count)`` pairs."""
        return self._counts.most_common(k)

    def to_dict(self) -> Dict[str, int]:
        """Return ``{"src|label|dst": count}`` suitable for JSON export."""
        return {"|".join(key): count for key, count in self._counts.items()}

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignatureDistribution({len(self._counts)} signatures, {self.total()} edges)"
