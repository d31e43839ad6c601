"""Throughput and latency instrumentation for the streaming engine.

The demo setup (paper section 6.1) quotes stream rates of 50-100 million
records per hour on a 48-core machine; experiment E6 reproduces the *shape*
of that claim (sustained edges/second, per-edge latency percentiles) on the
Python engine.  These helpers collect the numbers without dragging in any
external dependency.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional

__all__ = ["LatencyRecorder", "ThroughputMeter", "Stopwatch", "replan_summary"]


def replan_summary(
    monitor: Any,
    *,
    enabled: bool,
    threshold: Optional[float],
    check_every: Optional[int],
    plan_versions: Dict[str, int],
) -> Dict[str, Any]:
    """Build the ``metrics()["replan"]`` section from a plan monitor.

    ``monitor`` is a :class:`repro.stats.plan_monitor.PlanMonitor`, accepted
    duck-typed so this module stays import-light.  ``enabled`` reports whether
    *automatic* cadence checks are armed (threshold + check_every both set);
    manual ``run_replan_check()`` calls are counted either way.  Error
    aggregates cover finite observations only; ``last_errors`` maps query name
    to its most recent worst error (``inf`` for stats-blind plans).
    """
    return {
        "enabled": enabled,
        "threshold": threshold,
        "check_every": check_every,
        "checks_run": monitor.checks_run,
        "triggers_fired": monitor.triggers_fired,
        "plans_applied": monitor.plans_applied,
        "partials_migrated": monitor.partials_migrated,
        "partials_dropped": monitor.partials_dropped,
        "max_error_seen": monitor.max_error_seen,
        "mean_error": monitor.mean_error(),
        "error_count": monitor.error_count,
        "last_errors": dict(monitor.last_errors),
        "plan_versions": plan_versions,
    }


class Stopwatch:
    """Context manager measuring wall-clock duration in seconds."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None

    def start(self) -> None:
        """Start (or restart) timing."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop timing and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Stopwatch.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        self._start = None
        return self.elapsed


class LatencyRecorder:
    """Collect per-operation latencies and report percentiles.

    Latencies are recorded in seconds.  Storage is a bounded reservoir
    (Vitter's Algorithm R with a deterministic seed): the first ``cap``
    samples are kept verbatim, after which each new sample replaces a random
    retained one with probability ``cap / count`` -- a uniform sample of the
    whole stream, so memory stays bounded on arbitrarily long runs.  Mean,
    max and count are tracked exactly over *all* recorded samples;
    percentiles use the nearest-rank method on the (cached) sorted reservoir,
    which is exact until the cap is first exceeded and an unbiased estimate
    afterwards.

    Samples are wall-clock readings, so the recorder is process-local: a
    snapshot does not carry it, and a restored engine starts an empty one.

    Parameters
    ----------
    cap:
        Maximum retained samples; ``None`` keeps every sample (the old
        unbounded behaviour, for short diagnostic runs only).
    """

    DEFAULT_CAP = 8192

    def __init__(self, cap: Optional[int] = DEFAULT_CAP, seed: int = 9) -> None:
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive or None")
        self._cap = cap
        self._rng = random.Random(seed)
        self._samples: List[float] = []
        # lazily-computed percentile cache, rebuilt on first read
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def record(self, seconds: float) -> None:
        """Record one latency sample."""
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds
        if self._cap is None or len(self._samples) < self._cap:
            self._samples.append(seconds)
            self._sorted = None
            return
        slot = self._rng.randrange(self._count)
        if slot < self._cap:
            self._samples[slot] = seconds
            self._sorted = None

    def time(self) -> Stopwatch:
        """Return a stopwatch whose ``stop()`` value the caller records manually."""
        return Stopwatch()

    @property
    def count(self) -> int:
        """Total number of samples recorded (not just those retained)."""
        return self._count

    @property
    def retained(self) -> int:
        """Number of samples currently held in the reservoir."""
        return len(self._samples)

    def mean(self) -> float:
        """Mean latency in seconds over all recorded samples (0.0 with none)."""
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def max(self) -> float:
        """Maximum latency in seconds over all recorded samples (0.0 with none)."""
        return self._max

    def percentile(self, q: float) -> float:
        """Return the ``q``-quantile (``q`` in [0, 1]) by nearest rank."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        """Return count/mean/p50/p90/p99/max in a dict (seconds)."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "max": self.max(),
        }


class ThroughputMeter:
    """Track items processed against wall-clock time.

    Process-local like :class:`LatencyRecorder`: a snapshot does not carry
    it, and a restored engine counts from zero.
    """

    def __init__(self) -> None:
        self._items = 0
        # wall-clock start of the running interval, if any
        self._started: Optional[float] = None
        self._elapsed = 0.0

    def start(self) -> None:
        """Start (or resume) the meter."""
        if self._started is None:
            self._started = time.perf_counter()

    def stop(self) -> None:
        """Pause the meter, accumulating elapsed time."""
        if self._started is not None:
            self._elapsed += time.perf_counter() - self._started
            self._started = None

    def add(self, items: int = 1) -> None:
        """Record ``items`` processed."""
        self._items += items

    @property
    def items(self) -> int:
        """Total items recorded."""
        return self._items

    @property
    def elapsed(self) -> float:
        """Total measured seconds (including a currently-running interval)."""
        running = 0.0
        if self._started is not None:
            running = time.perf_counter() - self._started
        return self._elapsed + running

    def rate(self) -> float:
        """Return items per second (0.0 before any time has elapsed)."""
        elapsed = self.elapsed
        if elapsed <= 0:
            return 0.0
        return self._items / elapsed

    def summary(self) -> Dict[str, float]:
        """Return items/elapsed/rate in a dict."""
        return {"items": float(self._items), "elapsed_s": self.elapsed, "rate_per_s": self.rate()}
