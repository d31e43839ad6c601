"""The benchmark's passes.  Each one runs in its own forked child process.

Three back-to-back passes in one interpreter lost 18 % throughput to heap
state when this benchmark was designed; fresh processes held +-6 %.  So the
parent generates the inputs once, then forks one child per pass
(``in_child``); the child drives the engine through its public API and sends
one JSON-safe dict back through a pipe.

The engine is a synchronous single-threaded library: one caller feeds
``process_batch`` and gets the events back.  Its closed-loop drain rate
therefore *is* its sustainable rate (``closed_pass``); ``open_pass`` offers
the same batches on a fixed schedule that never slows, which is what a
detection latency needs.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
import pickle
import resource
import statistics
import time
import traceback
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.core.sharded import ShardConfig, ShardedStreamEngine
from repro.streaming.edge_stream import StreamEdge
from repro.streaming.events import MatchEvent

from workloads import WARMUP_SHARE, Generated, Workload

__all__ = [
    "in_child",
    "build_engine",
    "closed_pass",
    "open_pass",
    "traced_pass",
    "setup_pass",
    "reference_pass",
    "sharded_probe",
    "percentile",
]

#: Set-up cycles per run, and how many of the first are discarded.
SETUP_CYCLES = 100
SETUP_DISCARD = 5


# ----------------------------------------------------------------------
# process isolation
# ----------------------------------------------------------------------
def _child_main(connection, function: Callable[..., Dict[str, Any]], args: tuple) -> None:
    try:
        result = function(*args)
    except Exception:  # the parent must hear about it, whatever it was
        result = {"error": traceback.format_exc()}
    connection.send(result)
    connection.close()


def in_child(function: Callable[..., Dict[str, Any]], *args: Any) -> Dict[str, Any]:
    """Run ``function(*args)`` in a forked child; return the dict it produced.

    Fork (not spawn) on purpose: the child inherits the generated records
    without pickling them, and the parent has no threads.  A child that
    dies without answering yields ``{"error": ...}``.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child_main, args=(sender, function, args))
    process.start()
    sender.close()
    try:
        result = receiver.recv()  # drain before join: a full pipe would block the child
    except EOFError:
        result = {"error": "pass child exited without a result"}
    finally:
        receiver.close()
        process.join()
    if process.exitcode != 0 and "error" not in result:
        result = {"error": f"pass child exited with code {process.exitcode}"}
    return result


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def build_engine(
    workload: Workload, generated: Generated, overrides: Optional[Dict[str, Any]] = None
) -> StreamWorksEngine:
    """Default ``EngineConfig`` plus only what the workload's input requires."""
    config = dict(workload.config)
    if overrides:
        config.update(overrides)
    engine = StreamWorksEngine(config=EngineConfig(**config))
    for name, query, window in generated.queries:
        engine.register_query(query, name=name, window=window)
    if engine.reorder is not None:
        for source in workload.sources:
            engine.register_source(source)
    return engine


_PROBE_TABLE: Dict[str, int] = {}
_PROBE_LIST: List[str] = []


def _calibration_slice() -> float:
    """Time one fixed slice of interpreter work: str building, dict updates, a sort.

    Like the engine it lives on small allocations and dict probes, and its
    working set is tiny, so a busy neighbour stretches both alike.  It creates
    no GC-tracked container, so it can neither trigger a garbage collection
    nor be stretched by one that the engine's heap made expensive.
    """
    table, keys = _PROBE_TABLE, _PROBE_LIST
    started = perf_counter()
    for value in range(2000):
        key = "k" + str(value % 211)
        table[key] = table.get(key, 0) + value
        keys.append(key)
    keys.sort()
    keys.clear()
    table.clear()
    return perf_counter() - started


class Calibrator:
    """Interleaved machine-speed probe: the same fixed slice, all through a pass.

    This sandbox is a shared 2-vCPU microVM.  The slice above took 0.4 ms to
    0.85 ms (10th to 90th percentile) over twenty idle seconds while this
    benchmark was written, and its 0.7 s block means still spread 7 %: a
    wall-clock number measured here is first of all a measurement of the
    neighbours.  So every pass spends about a tenth of its time on this
    slice, between the calls it measures, and reports its timings divided by
    ``slowdown`` = mean slice time / ``REFERENCE_S`` -- seconds on this
    machine right now become seconds on a machine where the slice takes
    1 ms.  Same-seed closed-loop throughput spread 6-11 % raw and 2-5 %
    calibrated; the medians of run-sets taken half an hour apart differed by
    30 % raw.  The slowdown is taken per segment of a pass (``next_segment``)
    so that a neighbour waking up mid-pass is charged to the batches it hit.
    The raw mean and the slowdown are reported (``loadgen.calibration_ms``,
    ``loadgen.slowdown``): a raw number is one multiplication away.
    """

    #: Calibrated seconds are seconds at the machine speed where one slice
    #: takes this long (about this sandbox with quiet neighbours).
    REFERENCE_S = 0.001
    #: Probe once per this many slice-lengths of measured work.
    WORK_PER_SLICE = 10.0

    def __init__(self) -> None:
        #: Per segment: ``[probe seconds, probe slices, measured busy seconds]``.
        self.segments: List[List[float]] = []
        self._owed = 0.0
        self.next_segment()

    def next_segment(self) -> None:
        """Start a new segment (it opens with one probe, so it never has none)."""
        self.segments.append([0.0, 0, 0.0])
        self.slice()

    def slice(self) -> None:
        """Run the probe once."""
        segment = self.segments[-1]
        segment[0] += _calibration_slice()
        segment[1] += 1

    def mean_s(self) -> float:
        return sum(s[0] for s in self.segments) / sum(s[1] for s in self.segments)

    def follow(self, busy_seconds: float) -> None:
        """Account ``busy_seconds`` of measured work; probe for each slice owed."""
        self.segments[-1][2] += busy_seconds
        self._owed += busy_seconds
        owed_per_slice = self.WORK_PER_SLICE * self.mean_s()
        while self._owed >= owed_per_slice:
            self._owed -= owed_per_slice
            self.slice()

    def segment_slowdown(self, index: int) -> float:
        seconds, slices, _ = self.segments[index]
        return seconds / slices / self.REFERENCE_S

    def slowdown(self) -> float:
        return self.mean_s() / self.REFERENCE_S

    def calibrated_busy_s(self) -> float:
        """The measured work, each segment's seconds divided by its own slowdown."""
        return sum(
            busy / self.segment_slowdown(index)
            for index, (_, _, busy) in enumerate(self.segments)
        )

    def report(self) -> Dict[str, float]:
        return {"calibration_ms": self.mean_s() * 1000.0, "slowdown": self.slowdown()}


#: A pass's timed phase is calibrated in this many consecutive segments.
SEGMENTS = 8


def _segment_of(index: int, count: int) -> int:
    return index * SEGMENTS // count


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * share))
    return ordered[min(len(ordered), rank) - 1]


def _batches(records: List[StreamEdge], batch_size: int) -> List[List[StreamEdge]]:
    return [records[start : start + batch_size] for start in range(0, len(records), batch_size)]


def _warmup_batches(batch_count: int) -> int:
    return max(1, int(batch_count * WARMUP_SHARE))


def _canonical(event: MatchEvent) -> Tuple:
    """The benchmark's own event form: no edge ids, no ``trigger_index``."""
    edges = sorted(
        (edge.source, edge.target, edge.label, edge.timestamp)
        for edge in event.match.edge_map.values()
    )
    return (event.query_name, event.detected_at, edges)


def _summarise_events(
    events: Iterable[MatchEvent],
    records: List[StreamEdge],
    planted: List[Tuple[str, Tuple[float, ...]]],
    cuts: Sequence[int],
) -> Dict[str, Any]:
    """Digest the events in emission order; check the planted instances.

    ``cuts`` are arrival positions: the digest at a cut covers exactly the
    events whose matched edges had all arrived before it, which is what a
    run over that prefix of the arrivals must produce.
    """
    whole = hashlib.sha256()
    at_cut = {cut: hashlib.sha256() for cut in cuts}
    arrival = (
        {record.timestamp: position for position, record in enumerate(records)} if cuts else {}
    )
    matched_sets: Dict[str, set] = {}
    count = 0
    for event in events:
        count += 1
        token = repr(_canonical(event)).encode("utf-8")
        whole.update(token)
        timestamps = [edge.timestamp for edge in event.match.edge_map.values()]
        matched_sets.setdefault(event.query_name, set()).add(frozenset(timestamps))
        if at_cut:
            latest = max(arrival[timestamp] for timestamp in timestamps)
            for cut, hasher in at_cut.items():
                if latest < cut:
                    hasher.update(token)
    missing = sum(
        1
        for query_name, timestamps in planted
        if frozenset(timestamps) not in matched_sets.get(query_name, ())
    )
    return {
        "events": count,
        "digest": whole.hexdigest(),
        "cut_digests": {str(cut): hasher.hexdigest() for cut, hasher in at_cut.items()},
        "planted": len(planted),
        "planted_missing": missing,
    }


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; a forked child's peak starts at its own
    # resident size, so this is the pass's peak, not the parent's
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _isolate_heap() -> None:
    """Keep the load generator's objects out of the engine's GC passes.

    The records belong to the load generator, which in a deployment is
    another process; frozen, they are never traversed by a collection the
    engine's own allocations trigger.
    """
    gc.collect()
    gc.freeze()


class _Failures:
    """Records in calls that raised (they count against ``failed``)."""

    def __init__(self) -> None:
        self.records = 0
        self.first_error: Optional[str] = None

    def add(self, record_count: int) -> None:
        self.records += record_count
        if self.first_error is None:
            self.first_error = traceback.format_exc()

    def offer(self, engine: StreamWorksEngine, batch: List[StreamEdge]) -> List[MatchEvent]:
        """``process_batch``; a call that raises fails its records and the run goes on."""
        try:
            return engine.process_batch(batch)
        except Exception:
            self.add(len(batch))
            return []

    def flush(self, engine: StreamWorksEngine) -> List[MatchEvent]:
        """End-of-stream ``flush``; a raise fails whatever was still buffered."""
        try:
            return engine.flush()
        except Exception:
            self.add(len(engine.reorder) if engine.reorder is not None else 0)
            return []


# ----------------------------------------------------------------------
# closed pass: sustainable throughput
# ----------------------------------------------------------------------
def closed_pass(
    workload: Workload,
    generated: Generated,
    cuts: Sequence[int] = (),
    overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Untraced; one synchronous caller feeds ``process_batch`` back to back."""
    rss_at_fork = _peak_rss_mb()
    records = generated.records
    batches = _batches(records, workload.batch_size)
    warm = _warmup_batches(len(batches))
    engine = build_engine(workload, generated, overrides)
    failures = _Failures()
    _isolate_heap()
    for batch in batches[:warm]:
        failures.offer(engine, batch)
    calibrator = Calibrator()
    durations: List[float] = []
    cpu = 0.0
    timed = batches[warm:]
    for index, batch in enumerate(timed):
        if _segment_of(index, len(timed)) >= len(calibrator.segments):
            calibrator.next_segment()
        cpu_started = time.process_time()
        batch_started = perf_counter()
        failures.offer(engine, batch)
        durations.append(perf_counter() - batch_started)
        cpu += time.process_time() - cpu_started
        calibrator.follow(durations[-1])
    flush_started = perf_counter()
    failures.flush(engine)
    calibrator.follow(perf_counter() - flush_started)
    peak_rss_mb = _peak_rss_mb()  # before the digest work below inflates it
    timed_records = sum(len(batch) for batch in batches[warm:])
    result = _summarise_events(engine.events(), records, generated.planted, cuts)
    reorder = engine.metrics()["reorder"]
    result.update(calibrator.report())
    result.update(
        {
            "offered": len(records),
            "failed": failures.records,
            "first_error": failures.first_error,
            "calibrated_busy_s": calibrator.calibrated_busy_s(),
            "cpu_s": cpu,
            "throughput_rps": timed_records / calibrator.calibrated_busy_s(),
            "peak_rss_mb": peak_rss_mb,
            "rss_at_fork_mb": rss_at_fork,
            "batch_p50_ms": percentile(durations, 0.50) * 1000.0,
            "batch_p99_ms": percentile(durations, 0.99) * 1000.0,
            "late_dropped": int(reorder["records_late_dropped"]) if reorder else 0,
        }
    )
    return result


# ----------------------------------------------------------------------
# open pass: detection latency on a schedule that never slows
# ----------------------------------------------------------------------
def open_prefix_batches(batch_count: int) -> int:
    """Batches the open pass offers: the warm-up plus half of the rest."""
    warm = _warmup_batches(batch_count)
    return warm + max(1, (batch_count - warm) // 2)


def open_pass(workload: Workload, generated: Generated) -> Dict[str, Any]:
    """Untraced; batch ``k`` is due ``B / open_loop_rps`` calibrated seconds after ``k - 1``.

    Behind schedule, the next batch is offered immediately.  Every event is
    timed from the due time of the batch in which the *latest-arriving*
    record among its matched edges arrived to the return of the call that
    returned it: queue wait and reorder hold are in, window length is out.

    The schedule never looks at the engine, but it does follow the machine:
    each of the eight segments is paced -- and its samples calibrated -- by
    the slowdown the probe measured over the segment before it.  That keeps
    the offered load at the same share of what the machine can do whatever
    the neighbours are up to, and makes a reorder hold, which is a number of
    batch intervals, come out the same in calibrated time.
    """
    batch_size = workload.batch_size
    all_batches = _batches(generated.records, batch_size)
    warm = _warmup_batches(len(all_batches))
    batches = all_batches[: open_prefix_batches(len(all_batches))]
    offered_records = generated.records[: sum(len(batch) for batch in batches)]
    engine = build_engine(workload, generated)
    failures = _Failures()
    _isolate_heap()
    calibrator = Calibrator()  # segment 0 is the warm-up: it sets the first pace
    for batch in batches[:warm]:
        batch_started = perf_counter()
        failures.offer(engine, batch)
        calibrator.follow(perf_counter() - batch_started)
    interval = batch_size / workload.open_loop_rps
    due_times: Dict[int, float] = {}
    lags: List[float] = []
    returned: List[Tuple[float, float, int, List[MatchEvent]]] = []
    busy = 0.0
    timed = batches[warm:]
    pace = 1.0
    started = due = perf_counter()
    for offset, batch in enumerate(timed):
        if _segment_of(offset, len(timed)) + 1 >= len(calibrator.segments):
            pace = calibrator.segment_slowdown(-1)  # the segment just completed
            calibrator.next_segment()
        due += interval * pace
        while True:
            wait = due - perf_counter()
            if wait <= 0:
                break
            if wait > 3.0 * calibrator.mean_s():
                calibrator.slice()  # probe the machine while the schedule idles
            else:
                time.sleep(wait)
        due_times[warm + offset] = due
        sent = perf_counter()
        lags.append((sent - due) / pace)
        events = failures.offer(engine, batch)
        done = perf_counter()
        busy += done - sent
        if events:
            returned.append((done, pace, len(calibrator.segments) - 2, events))
    tail = failures.flush(engine)
    if tail:
        returned.append((perf_counter(), pace, len(calibrator.segments) - 2, tail))
    schedule_s = perf_counter() - started
    arrival_batch = {
        record.timestamp: position // batch_size
        for position, record in enumerate(offered_records)
    }
    # calibrated latency samples, grouped by the segment their call returned in
    by_segment: List[List[float]] = [[] for _ in range(SEGMENTS)]
    for returned_at, call_pace, segment, events in returned:
        for event in events:
            latest = max(
                arrival_batch[edge.timestamp] for edge in event.match.edge_map.values()
            )
            due = due_times.get(latest)
            if due is not None:  # arrived during warm-up: no schedule to time from
                by_segment[segment].append((returned_at - due) / call_pace)
    latencies = [sample for samples in by_segment for sample in samples]
    result = _summarise_events(engine.events(), offered_records, [], ())
    result.update(calibrator.report())
    result.update(
        {
            "offered": len(offered_records),
            "failed": failures.records,
            "first_error": failures.first_error,
            # the median of all samples shrugs off a neighbour's burst by itself
            # (ten-seed spread 4 % pooled against 11 % per segment on
            # cyber_selective); the tail does not, hence the segments
            "detect_p50_ms": percentile(latencies, 0.50) * 1000.0,
            "detect_p95_ms": _median_over_segments(by_segment, latencies, 0.95) * 1000.0,
            "detect_samples": len(latencies),
            "lag_p99_ms": percentile(lags, 0.99) * 1000.0,
            # how many batch intervals behind schedule the generator ended
            "backlog_end_batches": max(0.0, lags[-1]) / interval,
            "utilisation": busy / schedule_s,
        }
    )
    return result


def _median_over_segments(
    by_segment: List[List[float]], everything: List[float], share: float
) -> float:
    """Median over the pass's segments of each segment's percentile.

    A neighbour's burst spoils the segments it lands in, not the median of
    all eight.  A segment counts when the percentile leaves at least two
    samples beyond it; with fewer than five such segments (smoke scale) the
    percentile of all samples together is reported instead.
    """
    needed = math.ceil(2.0 / (1.0 - share))
    usable = [samples for samples in by_segment if len(samples) >= needed]
    if len(usable) < 5:
        return percentile(everything, share)
    return statistics.median(percentile(samples, share) for samples in usable)


# ----------------------------------------------------------------------
# set-up: engine construction + query registration
# ----------------------------------------------------------------------
def setup_pass(
    workload: Workload, generated: Generated, cycles: int = SETUP_CYCLES
) -> Dict[str, Any]:
    """Time construct + register (plan, decompose, compile, index build)."""
    _isolate_heap()
    samples: List[float] = []
    ratios: List[float] = []
    for _ in range(cycles):
        started = perf_counter()
        build_engine(workload, generated)
        samples.append(perf_counter() - started)
        # one probe right after every cycle: the pair saw the same machine, so
        # the median of the ratios shrugs off whatever hit either of them
        ratios.append(samples[-1] / _calibration_slice())
    kept = samples[SETUP_DISCARD:]
    return {
        "setup_s": percentile(ratios[SETUP_DISCARD:], 0.50) * Calibrator.REFERENCE_S,
        "raw_setup_mean_s": sum(kept) / len(kept),
        "setup_cycles": len(kept),
    }


# ----------------------------------------------------------------------
# reference pass: the in-order, straggler-free stream through a plain engine
# ----------------------------------------------------------------------
def reference_pass(workload: Workload, generated: Generated) -> Dict[str, Any]:
    """What the reorder buffer must reproduce: no buffer, sorted input, B = 512."""
    engine = build_engine(workload, generated, {"allowed_lateness": None})
    reference = generated.reference if generated.reference is not None else generated.records
    for batch in _batches(reference, 512):
        engine.process_batch(batch)
    return _summarise_events(engine.events(), reference, [], ())


# ----------------------------------------------------------------------
# traced pass: per-layer seconds and counts
# ----------------------------------------------------------------------
def _layer_counts(engine: StreamWorksEngine) -> Dict[str, float]:
    """The count metrics: read from ``engine.metrics()``, exact for a seed."""
    metrics = engine.metrics()
    columnar = metrics["columnar"]
    dispatch = metrics["dispatch"]
    replan = metrics["replan"]
    dedup = metrics["sketch"]["dedup_memory"]
    reorder = metrics["reorder"] or {}
    per_query = metrics["queries"].values()

    def total(key: str) -> int:
        return sum(stats[key] for stats in per_query)

    return {
        # the buffer reports its counters as floats
        "reorder.records_offered": int(reorder.get("records_seen", 0)),
        "reorder.records_released": int(reorder.get("records_released", 0)),
        "reorder.late_dropped": int(reorder.get("records_late_dropped", 0)),
        "graph.edges_evicted": metrics["edges_evicted"],
        "graph.edges_live_end": metrics["graph_edges"],
        "graph.vertices_live_end": metrics["graph_vertices"],
        "graph.range_scans": columnar["range_scans"],
        "graph.range_scan_fallbacks": columnar["range_scan_fallbacks"],
        "interning.labels_end": columnar["interned_labels"],
        "summarizer.edges_observed": (
            engine.summarizer.edges_observed if engine.summarizer is not None else 0
        ),
        "replan.checks": replan["checks_run"],
        "replan.plans_applied": replan["plans_applied"],
        "replan.partials_migrated": replan["partials_migrated"],
        "dispatch.lookups": dispatch["lookups"],
        "dispatch.entries_matched": dispatch["entries_matched"],
        "dispatch.entries_skipped": dispatch["entries_skipped"],
        "dispatch.memo_hits": columnar["dispatch_memo_hits"],
        "dispatch.records_prefiltered": columnar["records_prefiltered"],
        "dispatch.leaves_pruned": columnar["leaves_pruned"],
        "matcher.partials_expired": total("partial_matches_expired"),
        "matcher.leaf_matches_found": total("leaf_matches_found"),
        "matcher.complete_matches": total("complete_matches"),
        "matcher.duplicates_suppressed": total("duplicate_matches_suppressed"),
        "matcher.partials_peak": total("peak_stored_matches"),
        "join.attempted": total("joins_attempted"),
        "join.succeeded": total("joins_succeeded"),
        "dedup.probes": dedup["probes"],
        "dedup.entries_peak": dedup["peak_entries"],
        "dedup.evictions": dedup["evictions_budget"] + dedup["evictions_horizon"],
        "emit.events": metrics["events_emitted"],
        "engine.batches": engine.batches_processed,
        "engine.runs": columnar["batches_vectorized"],
        "engine.dead_on_arrival": metrics["ingest_paths"]["dead_on_arrival"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_pass(
    workload: Workload, generated: Generated, out_dir: str
) -> Dict[str, Any]:
    """The closed pass again with ``bench/trace.py`` spans on.

    Seconds and counts cover the whole pass, warm-up included, so that
    seconds / calls means something; only ``timed_wall_s`` (for the overhead
    ratio) is the post-warm-up phase.  Ends with one checkpoint + restore.
    """
    from trace import SPAN_LAYERS, Tracer, install

    records = generated.records
    batches = _batches(records, workload.batch_size)
    warm = _warmup_batches(len(batches))
    tracer = Tracer()
    install(tracer)
    engine = build_engine(workload, generated)
    failures = _Failures()
    buffered_peak = 0
    _isolate_heap()
    calibrator = Calibrator()
    loop_s = 0.0  # wall clock of the load loop, calibration slices excluded
    for index, batch in enumerate(batches):
        tracer.current_batch = index
        started = perf_counter()
        failures.offer(engine, batch)
        if engine.reorder is not None and len(engine.reorder) > buffered_peak:
            buffered_peak = len(engine.reorder)
        elapsed = perf_counter() - started
        loop_s += elapsed
        if index >= warm:
            calibrator.follow(elapsed)
    tracer.current_batch = len(batches)
    started = perf_counter()
    failures.flush(engine)
    elapsed = perf_counter() - started
    loop_s += elapsed
    calibrator.follow(elapsed)
    tracer.current_batch = -1

    snapshot_path = os.path.join(out_dir, f"{workload.name}.snapshot")
    started = perf_counter()
    engine.checkpoint(snapshot_path)
    checkpoint_s = perf_counter() - started
    snapshot_bytes = os.path.getsize(snapshot_path)
    started = perf_counter()
    restored = StreamWorksEngine.restore(snapshot_path)
    restore_s = perf_counter() - started
    os.remove(snapshot_path)

    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    batch_s = inclusive("engine.process_batch") + inclusive("engine.flush")
    layer_self: Dict[str, float] = {}
    for name, layer in SPAN_LAYERS.items():
        layer_self[layer] = layer_self.get(layer, 0.0) + own(name)
    counts = _layer_counts(engine)
    find_calls = calls("local_search.find")
    layers: Dict[str, float] = dict(counts)
    layers.update(
        {
            "reorder.offer_s": inclusive("reorder.offer"),
            "reorder.drain_s": inclusive("reorder.drain"),
            "reorder.buffered_peak": buffered_peak,
            "reorder.release_run_len_mean": (
                _ratio(counts["reorder.records_released"], counts["engine.runs"])
                if engine.reorder is not None
                else 0.0
            ),
            "graph.ingest_s": inclusive("graph.ingest"),
            "graph.ingest_calls": calls("graph.ingest"),
            "graph.evict_s": inclusive("graph.evict"),
            "graph.evict_calls": calls("graph.evict"),
            "summarizer.observe_s": inclusive("summarizer.observe"),
            "summarizer.observe_calls": calls("summarizer.observe"),
            "replan.check_s": inclusive("replan.check"),
            "dispatch.route_s": inclusive("dispatch.front") + inclusive("dispatch.candidates"),
            "dispatch.prune_ratio": _ratio(
                counts["dispatch.leaves_pruned"], counts["dispatch.leaves_pruned"] + find_calls
            ),
            "matcher.expire_s": inclusive("matcher.expire"),
            "matcher.expire_calls": calls("matcher.expire"),
            "matcher.search_s": inclusive("matcher.search"),
            "matcher.search_calls": calls("matcher.search"),
            "matcher.self_s": own("matcher.search"),
            "local_search.find_s": inclusive("local_search.find"),
            "local_search.find_calls": find_calls,
            "local_search.hit_ratio": _ratio(tracer.non_empty["local_search.find"], find_calls),
            "join.try_s": inclusive("join.try"),
            "join.success_ratio": _ratio(counts["join.succeeded"], counts["join.attempted"]),
            "emit.trigger_s": inclusive("emit.trigger"),
            "emit.trigger_calls": calls("emit.trigger"),
            "sink.deliver_s": inclusive("sink.deliver"),
            "engine.batch_s": batch_s,
            "engine.self_s": own("engine.process_batch") + own("engine.flush"),
            "persistence.checkpoint_s": checkpoint_s,
            "persistence.restore_s": restore_s,
            "persistence.snapshot_bytes": snapshot_bytes,
            # wall clock of the load loop that no span covers
            "trace.unattributed_share": _ratio(loop_s - tracer.root_seconds(), batch_s),
        }
    )
    tracer.write_jsonl(os.path.join(out_dir, f"{workload.name}.trace.jsonl"))
    result = _summarise_events(engine.events(), records, generated.planted, ())
    result.update(
        {
            "offered": len(records),
            "failed": failures.records,
            "first_error": failures.first_error,
            "calibrated_busy_s": calibrator.calibrated_busy_s(),
            "layers": layers,
            "layer_self_share": {
                layer: _ratio(seconds, batch_s) for layer, seconds in layer_self.items()
            },
            "restored_events": len(restored.events()),
        }
    )
    return result


# ----------------------------------------------------------------------
# sharded probe: counts only, serial scheduler
# ----------------------------------------------------------------------
#: What the probe reports; zero on the workloads where it does not run.
SHARDED_IDLE: Dict[str, float] = dict.fromkeys(
    (
        "sharded.route_s",
        "sharded.merge_self_s",
        "sharded.fanout_ratio",
        "sharded.batch_pickle_bytes",
        "sharded.serial_overhead_ratio",
    ),
    0,
)


def sharded_probe(workload: Workload, generated: Generated) -> Dict[str, Any]:
    """First 20 % of the batches through ``ShardedStreamEngine(2 shards, 0 workers)``.

    No pooled workers and no wall-clock scaling claim: on a 2-core shared
    box that number would be noise.  What repeats is what is reported --
    fan-out, the bytes a pooled scheduler would have to pickle per shard
    batch, and the serial overhead against the single engine on the same
    prefix, with the two digests asserted equal.
    """
    from trace import Tracer

    from repro.streaming.partition import BatchRouter

    batches = _batches(generated.records, workload.batch_size)
    prefix = batches[: max(1, len(batches) // 5)]
    prefix_records = [record for batch in prefix for record in batch]

    single = build_engine(workload, generated)
    _isolate_heap()
    started = perf_counter()
    for batch in prefix:
        single.process_batch(batch)
    single.flush()
    single_wall = perf_counter() - started
    single_summary = _summarise_events(single.events(), prefix_records, [], ())

    tracer = Tracer()
    pickled = {"bytes": 0, "seconds": 0.0, "batches": 0}
    run_shard = ShardedStreamEngine._run_shard_serial

    def measured_shard(self, batch, per_record):
        started = perf_counter()
        pickled["bytes"] += len(pickle.dumps(batch))
        pickled["batches"] += 1
        pickled["seconds"] += perf_counter() - started
        return run_shard(self, batch, per_record)

    ShardedStreamEngine._run_shard_serial = tracer.wrap("sharded.shard", measured_shard)
    ShardedStreamEngine._run_batch = tracer.wrap("sharded.batch", ShardedStreamEngine._run_batch)
    BatchRouter.route = tracer.wrap("sharded.route", BatchRouter.route)

    sharded = ShardedStreamEngine(
        config=ShardConfig(shard_count=2, workers=0, engine=EngineConfig(**workload.config))
    )
    for name, query, window in generated.queries:
        sharded.register_query(query, name=name, window=window)
    started = perf_counter()
    for batch in prefix:
        sharded.process_batch(batch)
    sharded.flush()
    sharded_wall = perf_counter() - started - pickled["seconds"]
    sharded_summary = _summarise_events(sharded.events(), prefix_records, [], ())
    sharded.close()
    totals = tracer.totals()
    router = sharded.router.stats()
    return {
        "digest_equal": sharded_summary["digest"] == single_summary["digest"],
        "events": sharded_summary["events"],
        "layers": {
            "sharded.route_s": totals["sharded.route"][1],
            # the parent's own work per batch: clocks, sub-batch build, merge
            "sharded.merge_self_s": totals["sharded.batch"][2],
            "sharded.fanout_ratio": _ratio(router["fanout_total"], router["records_seen"]),
            "sharded.batch_pickle_bytes": pickled["bytes"],
            "sharded.serial_overhead_ratio": _ratio(sharded_wall, single_wall),
        },
    }
