"""Asynchronous ingestion front-end: admission off the matcher's thread.

The engines' event-time path is synchronous: ``process_batch`` admits into
the reorder buffer, advances watermarks and runs the matcher on whatever
was released -- all on the caller's thread.  Under production traffic that
couples producer hiccups to matcher latency in both directions: a slow
batch of matching stalls admission (the feed backs up), and a burst of
admissions stalls matching.  Incremental evaluation only stays cheap if
admission never waits on the matcher (cf. Berkholz et al., "Answering
FO+MOD queries under updates", arXiv:1702.08764 -- the update-processing
path must be decoupled from enumeration).

:class:`AsyncIngestFrontend` splits the two across threads with *zero*
semantic drift:

* a background **ingest thread** (stdlib :mod:`threading`, no new
  dependencies) owns the engine's reorder buffer: it pops submitted record
  batches from a bounded queue, admits them (sort + watermark bookkeeping)
  and parks each batch's watermark-released prefix on a ready queue;
* the **caller's thread** drains ready prefixes through the engine
  (:meth:`drain` / :meth:`flush`), so all matcher/graph state stays
  single-threaded.  On the sharded engine this is where the overlap pays:
  while the pool scheduler blocks on worker round-trips (releasing the
  GIL), the ingest thread is admitting the next batches.

**Equivalence contract.**  The ingest thread processes one submitted batch
at a time -- admit, drain the buffer once, capture the watermark -- which
is exactly the per-``process_batch`` release cadence of the synchronous
path.  Released prefixes are processed in submission order on one thread,
through the same engine front methods the synchronous ``process_batch``
and ``flush`` call (:class:`~repro.core.ingest.IngestFront`), so the batch
count and the replan cadence advance exactly as they would there.  The
event stream (matches, order, sequence numbers) after ``flush()`` or
``close()`` is therefore **byte-for-byte identical** to feeding the same
batches through ``engine.process_batch`` + ``engine.flush()`` -- pinned by
the conformance and crash-recovery tests.

**Checkpointing.**  :meth:`checkpoint` quiesces (waits until every
submitted batch is admitted), drains released work through the engine, and
then delegates to ``engine.checkpoint`` -- the buffer's pending tail is
engine state, so the snapshot captures it exactly.  Restore with the
engine class's ``restore`` and wrap the result in a fresh frontend.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .edge_stream import StreamEdge
from .events import MatchEvent

__all__ = ["AsyncIngestFrontend"]

#: Sentinel shutting the ingest thread down.
_STOP = object()


class AsyncIngestFrontend:
    """Threaded admission front-end over an event-time-configured engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.engine.StreamWorksEngine` or
        :class:`~repro.core.sharded.ShardedStreamEngine` whose config sets
        ``allowed_lateness`` (the frontend owns that reorder buffer while
        open, and hands each release to the engine's
        :class:`~repro.core.ingest.IngestFront` on the consumer thread).
    max_queue_batches:
        Bound on the submission queue; :meth:`submit` blocks once this many
        batches are waiting for admission (backpressure toward the
        producer, keeping memory proportional to the bound).

    Raises
    ------
    ValueError
        If the engine has no reorder buffer (event-time ingestion is not
        configured) or ``max_queue_batches`` is not positive.

    Threading contract: :meth:`submit` may be called from one producer
    thread; :meth:`drain` / :meth:`flush` / :meth:`checkpoint` /
    :meth:`close` must come from a single consumer thread (typically the
    same one), because they run the engine, whose state is deliberately
    not thread-safe.  While the frontend is open, do not call the engine's
    own ``process_*``/``flush`` directly -- admissions would race the
    ingest thread's view of the buffer.  Usable as a context manager
    (``close()`` on exit).
    """

    def __init__(self, engine: Any, max_queue_batches: int = 64):
        buffer = getattr(engine, "reorder", None)
        if buffer is None:
            raise ValueError(
                "AsyncIngestFrontend requires an event-time engine: configure "
                "EngineConfig(allowed_lateness=...) so the engine owns a reorder buffer"
            )
        if max_queue_batches <= 0:
            raise ValueError("max_queue_batches must be positive")
        if engine.engine_config.checkpoint_every is not None:
            # batch-cadence autosave would fire on the consumer thread while
            # the ingest thread may be mid-admission, snapshotting an
            # inconsistent cut of the buffer.  Refuse loudly instead.
            raise ValueError(
                "EngineConfig(checkpoint_every=...) autosave is a synchronous-"
                "ingest feature; with AsyncIngestFrontend, call "
                "frontend.checkpoint(path) on your own cadence instead (it "
                "quiesces admission first)"
            )
        self.engine = engine
        self._buffer = buffer
        #: Guards the reorder buffer (shared: ingest thread admits, the
        #: consumer thread flushes/checkpoints).
        self._buffer_lock = threading.Lock()
        self._submitted: "queue.Queue[Any]" = queue.Queue(maxsize=max_queue_batches)
        #: Released work in submission order: ``(ready, late, watermark)``.
        self._released: List[Tuple[List[StreamEdge], List[StreamEdge], float]] = []
        self._released_lock = threading.Lock()
        #: Sticky admission failure; shared with the ingest thread, so every
        #: access after __init__ holds ``_released_lock``.
        self._error: Optional[BaseException] = None
        self._closed = False
        # counters (exposed via stats())
        self.batches_submitted = 0
        self.batches_admitted = 0
        self.records_submitted = 0
        self.max_queue_depth = 0
        self._thread = threading.Thread(
            target=self._ingest_loop, name="streamworks-async-ingest", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # ingest thread
    # ------------------------------------------------------------------
    def _ingest_loop(self) -> None:
        while True:
            item = self._submitted.get()
            try:
                if item is _STOP:
                    return
                with self._released_lock:
                    poisoned = self._error is not None
                if poisoned:
                    continue  # drain the queue so join()/barrier never hang
                with self._buffer_lock:
                    late = self._buffer.offer_all(item)
                    ready = self._buffer.drain_ready()
                    watermark = self._buffer.watermark
                # park an item for EVERY batch (empty releases included):
                # drain() then mirrors the synchronous path call for call --
                # one engine._process_batch_release per submitted batch --
                # so watermark stamps and batch counters stay byte-identical
                # to feeding process_batch directly
                with self._released_lock:
                    self._released.append((ready, late, watermark))
                    # bumped strictly AFTER the park, inside the same lock
                    # _quiesced reads the counters under: the gate on
                    # batches_admitted == batches_submitted can never hold
                    # while a popped batch's released prefix is still in
                    # the ingest thread's hands
                    self.batches_admitted += 1
            except BaseException as error:  # surfaced on the next API call
                with self._released_lock:
                    self._error = error
            finally:
                self._submitted.task_done()

    def _check_error(self) -> None:
        """Raise if the ingest thread failed.  The error is *sticky*: a failed
        admission may have left the buffer partially mutated, so the frontend
        stays poisoned (every later call raises too) rather than pretending
        the next call is healthy; only :meth:`close` still works (it stops
        the thread, then re-raises)."""
        with self._released_lock:
            error = self._error
        if error is not None:
            raise RuntimeError(
                "async ingest thread failed during admission; the frontend is "
                "unusable (the failed batch may be partially admitted)"
            ) from error

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, records: Sequence[StreamEdge]) -> None:
        """Enqueue one batch for admission; returns without waiting for it.

        Blocks only when the submission queue is full (backpressure).
        Events produced by whatever this batch releases are returned by a
        later :meth:`drain` / :meth:`flush` and are always available via
        ``engine.events()``.  Raises ``RuntimeError`` after :meth:`close`
        or if the ingest thread failed.
        """
        if self._closed:
            raise RuntimeError("submit() on a closed AsyncIngestFrontend")
        self._check_error()
        # counters share _released_lock with the ingest thread's admission
        # bookkeeping (NOT _buffer_lock: holding that here would serialise
        # the producer with admission and kill the ingest overlap)
        with self._released_lock:
            self.batches_submitted += 1
            self.records_submitted += len(records)
            depth = self._submitted.qsize() + 1
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth
        self._submitted.put(list(records))

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def _take_released(self) -> List[Tuple[List[StreamEdge], List[StreamEdge], float]]:
        with self._released_lock:
            items, self._released = self._released, []
        return items

    def drain(self) -> List[MatchEvent]:
        """Run every currently-released prefix through the engine.

        Non-blocking with respect to admission: batches still queued or
        mid-admission are left for a later drain.  Each release goes
        through the method ``process_batch`` ends in, so the events come in
        exactly the order the synchronous path would have produced them and
        ``engine.batches_processed`` and the replan cadence advance
        one-for-one with the submitted batches.
        """
        self._check_error()
        events: List[MatchEvent] = []
        for ready, late, watermark in self._take_released():
            events.extend(self.engine._process_batch_release(ready, late, watermark))
        return events

    def _barrier(self) -> None:
        """Block until every submitted batch has been admitted to the buffer."""
        self._submitted.join()
        self._check_error()

    def _quiesced(self, action: Callable[[], Any]) -> Tuple[List[MatchEvent], Any]:
        """Drain to a clean submitted-batch boundary, then run ``action``.

        Loops barrier + drain until, *under the buffer lock*, no
        released-but-undrained work exists and every submitted batch has
        been fully admitted AND parked (``batches_admitted`` is bumped
        strictly after the ``_released`` append, so the counter equality
        cannot hold while a popped batch's prefix is still in the ingest
        thread's hands -- a plain queue-emptiness check would);
        ``action()`` then runs while the lock is still held, so a producer
        thread submitting concurrently can never strand a released prefix
        outside the cut — a batch it submits during the call simply lands
        after it.  With a producer that never pauses, the loop keeps
        chasing the queue until it catches it idle.  Returns ``(drained
        events, action result)``.
        """
        events: List[MatchEvent] = []
        while True:
            self._barrier()
            events.extend(self.drain())
            with self._buffer_lock:
                with self._released_lock:
                    clean = (
                        not self._released
                        and self.batches_admitted == self.batches_submitted
                    )
                if clean:
                    return events, action()

    def flush(self) -> List[MatchEvent]:
        """Synchronously drain everything: queue, buffer tail, late records.

        Quiesces to a submitted-batch boundary (see :meth:`_quiesced` — a
        concurrently-submitted batch cannot interleave its older released
        prefix after the flushed tail), processes every released prefix,
        then flushes the reorder buffer's remaining tail through the
        engine (end-of-stream).  After ``flush()`` the engine has
        processed exactly what the synchronous path would have --
        byte-for-byte.  The frontend stays usable (more ``submit`` calls
        may follow, as after ``engine.flush()``).
        """
        events, (remainder, watermark) = self._quiesced(
            lambda: (self._buffer.flush(), self._buffer.watermark)
        )
        # the release engine.flush() makes, with the watermark captured
        # under the buffer lock
        events.extend(self.engine._process_released(remainder, (), watermark))
        return events

    def checkpoint(self, path: str) -> Dict[str, Any]:
        """Quiesce and snapshot the engine at a submitted-batch boundary.

        Equivalent to checkpointing the synchronous engine after the same
        submitted batches: admission is quiesced (see :meth:`_quiesced`),
        released work is drained through the engine (those events are in
        ``engine.events()``), and the engine's own ``checkpoint`` captures
        graph, matchers, the reorder buffer's pending tail and all
        counters.  Returns the snapshot manifest.  Restore via the engine
        class's ``restore``, wrap the new engine in a new frontend, and
        ``close()`` this one (its ingest thread keeps running otherwise).
        """
        _, manifest = self._quiesced(lambda: self.engine.checkpoint(path))
        return manifest

    def close(self) -> List[MatchEvent]:
        """Flush synchronously, stop the ingest thread, return the tail's events.

        Idempotent: the first call returns whatever the final flush
        produced, later calls return ``[]``.  The ingest thread is stopped
        even when the final flush raises (a sticky admission error is
        re-raised *after* the thread is shut down), so a failed frontend
        never leaks its thread.  After ``close()`` the engine is
        exclusively the caller's again (its full event history is in
        ``engine.events()``).
        """
        if self._closed:
            return []
        try:
            return self.flush()
        finally:
            self._closed = True
            self._submitted.put(_STOP)
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "AsyncIngestFrontend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Return frontend counters (queue depths, batch/record totals)."""
        # _closed is a GIL-atomic flag flipped once by close(); it is read
        # outside the lock on purpose (taking _released_lock around every
        # flag read would buy nothing -- close() does not hold it either)
        closed = self._closed
        with self._released_lock:
            return {
                "batches_submitted": self.batches_submitted,
                "batches_admitted": self.batches_admitted,
                "records_submitted": self.records_submitted,
                "queue_depth": self._submitted.qsize(),
                "max_queue_depth": self.max_queue_depth,
                "released_pending": len(self._released),
                "closed": closed,
            }

    def metrics(self) -> Dict[str, Any]:
        """Return ``engine.metrics()`` augmented with ``{"async_ingest": stats}``.

        Taken under the buffer lock: ``engine.metrics()`` reads the shared
        reorder buffer (source map iteration, watermark computation), which
        the ingest thread mutates during admissions.
        """
        with self._buffer_lock:
            merged = self.engine.metrics()
        merged["async_ingest"] = self.stats()
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._released_lock:
            submitted = self.batches_submitted
        return (
            f"AsyncIngestFrontend(queued={self._submitted.qsize()}, "
            f"submitted={submitted}, closed={self._closed})"
        )
