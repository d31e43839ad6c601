"""Degree-distribution summaries.

Degree distribution is the first of the three summary-statistic families the
paper's query planner consumes (section 4.3).  The window store keeps every
vertex's live degree, so the distribution is built from those on demand
(:class:`~repro.stats.summarizer.StreamSummarizer`) or from a stored graph.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Optional

__all__ = ["DegreeDistribution"]


class DegreeDistribution:
    """Summary of a multiset of vertex degrees."""

    def __init__(self, degrees: Optional[Iterable[int]] = None):
        self._histogram: Counter = Counter()
        self._count = 0
        self._total = 0
        if degrees is not None:
            for degree in degrees:
                self.add(degree)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, degree: int) -> None:
        """Record one vertex with the given degree."""
        if degree < 0:
            raise ValueError("degrees are non-negative")
        self._histogram[degree] += 1
        self._count += 1
        self._total += degree

    @classmethod
    def from_graph(cls, graph) -> "DegreeDistribution":
        """Build the distribution of total degrees from a stored graph."""
        store = graph.graph if hasattr(graph, "graph") else graph
        dist = cls()
        for vertex in store.vertices():
            dist.add(store.degree(vertex.id))
        return dist

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        """Number of vertices recorded."""
        return self._count

    @property
    def total_degree(self) -> int:
        """Sum of all recorded degrees (twice the edge count for a simple graph)."""
        return self._total

    def mean(self) -> float:
        """Average degree (0.0 for an empty distribution)."""
        if self._count == 0:
            return 0.0
        return self._total / self._count

    def max(self) -> int:
        """Largest recorded degree (0 for an empty distribution)."""
        if not self._histogram:
            return 0
        return max(self._histogram)

    def min(self) -> int:
        """Smallest recorded degree (0 for an empty distribution)."""
        if not self._histogram:
            return 0
        return min(self._histogram)

    def percentile(self, q: float) -> int:
        """Return the smallest degree d such that at least ``q`` of vertices have degree <= d.

        ``q`` is a fraction in [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("percentile fraction must be in [0, 1]")
        if self._count == 0:
            return 0
        threshold = q * self._count
        cumulative = 0
        for degree in sorted(self._histogram):
            cumulative += self._histogram[degree]
            if cumulative >= threshold:
                return degree
        return max(self._histogram)

    def histogram(self) -> Dict[int, int]:
        """Return ``{degree: vertex count}``."""
        return dict(self._histogram)

    def variance(self) -> float:
        """Population variance of the degrees."""
        if self._count == 0:
            return 0.0
        mean = self.mean()
        return sum(count * (degree - mean) ** 2 for degree, count in self._histogram.items()) / self._count

    def skew_ratio(self) -> float:
        """Return max degree / mean degree -- a cheap heavy-tail indicator.

        Values far above 1 indicate hub-dominated graphs where join-order
        selectivity matters most.
        """
        mean = self.mean()
        if mean == 0:
            return 0.0
        return self.max() / mean

    def power_law_exponent(self) -> Optional[float]:
        """Return a maximum-likelihood power-law exponent estimate (Clauset et al. style).

        Uses ``alpha = 1 + n / sum(ln(d / d_min))`` over degrees ``>= d_min``
        with ``d_min = 1``.  Returns ``None`` when there are fewer than 10
        positive-degree vertices (too little data to be meaningful).
        """
        positive = [(degree, count) for degree, count in self._histogram.items() if degree >= 1]
        n = sum(count for _, count in positive)
        if n < 10:
            return None
        log_sum = sum(count * math.log(degree / 0.5) for degree, count in positive)
        if log_sum <= 0:
            return None
        return 1.0 + n / log_sum

    def to_dict(self) -> Dict[str, object]:
        """Serialise the headline statistics."""
        return {
            "vertex_count": self._count,
            "mean": self.mean(),
            "max": self.max(),
            "p50": self.percentile(0.5),
            "p90": self.percentile(0.9),
            "p99": self.percentile(0.99),
            "skew_ratio": self.skew_ratio(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DegreeDistribution(n={self._count}, mean={self.mean():.2f}, max={self.max()})"
