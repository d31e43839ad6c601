"""The one ingest front both engines share: admission, release, flush, cadence.

Every way a record enters an engine ends in that engine's ``_run_batch``:

* ``process_batch(records)`` -- the batch, or what the reorder buffer
  releases once it is admitted;
* ``process_record(record)`` -- a one-record batch (not counted as a
  ``process_batch`` call);
* ``flush()`` -- the reorder buffer's tail.

So there is one execution path per engine: the single engine runs each
batch as ordered runs of its fast path, the sharded engine routes it to its
shards, which do the same.  The front owns what surrounds it: the event-time
reorder buffer (``allowed_lateness``), the watermark stamp, the
``process_batch`` count and batch-cadence autosave (``checkpoint_every``),
and the replan cadence (``replan_check_every``).  The cadence is counted
once per ``_run_batch`` from ``edges_processed``, so a check is due at the
same stream position however the records arrived; the single engine runs
the due checks, the sharded engine ships the count to every shard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from ..streaming.batching import batch_by_count
from ..streaming.edge_stream import StreamEdge
from ..streaming.events import MatchEvent
from ..streaming.reorder import ReorderBuffer

if TYPE_CHECKING:
    from .engine import EngineConfig

__all__ = ["IngestFront"]


class IngestFront:
    """Reorder / flush / autosave / replan cadence in front of an engine's ``_run_batch``."""

    def __init__(self, engine_config: "EngineConfig") -> None:
        #: The :class:`~repro.core.engine.EngineConfig` the front reads: the
        #: single engine's own config, the sharded engine's shard template.
        self.engine_config = engine_config
        #: Event-time reorder buffer (``None`` unless ``allowed_lateness`` is
        #: set): one watermark per record ``source_id``, so with no
        #: ``source_id`` on the records it is one global watermark.  On the
        #: sharded engine it lives in the parent, before routing.
        self.reorder: Optional[ReorderBuffer] = None
        if engine_config.allowed_lateness is not None:
            self.reorder = ReorderBuffer(
                engine_config.allowed_lateness,
                idle_timeout=engine_config.idle_source_timeout,
            )
        #: Records run so far (admitted; late-dropped records never count).
        self.edges_processed = 0
        #: ``process_batch`` invocations so far -- the autosave cadence clock.
        self.batches_processed = 0
        #: Monotone snapshot epoch: bumped on every checkpoint, carried across
        #: restore, written into the snapshot manifest so the newest of
        #: several autosaves is identifiable.
        self.checkpoint_epoch = 0
        #: The reorder buffer's watermark at the last release (``-inf``
        #: before any, and without a buffer).
        self.event_time_watermark = float("-inf")
        #: The ``edges_processed`` count at which the next automatic replan
        #: check is due (``None`` = automatic checks disabled); persisted so
        #: a restored engine keeps the exact cadence.
        self._next_replan_check: Optional[int] = (
            engine_config.replan_check_every
            if engine_config.replan_threshold is not None
            else None
        )

    # ------------------------------------------------------------------
    # what each engine supplies
    # ------------------------------------------------------------------
    def _run_batch(self, records: List[StreamEdge], ordered: bool = False) -> List[MatchEvent]:
        """Run one batch through the engine (``ordered``: it is non-decreasing)."""
        raise NotImplementedError

    def checkpoint(self, path: str) -> Dict[str, Any]:
        """Write an atomic snapshot of the engine to ``path``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def register_source(self, source_id: str) -> None:
        """Declare a stream source (collector) before its first record.

        Multi-source event-time only: the release watermark is the minimum
        across the known sources' watermarks, so pre-registering the
        collector set guarantees nothing is released until every collector
        has spoken (or gone idle under ``idle_source_timeout``) -- the
        condition for sorted-merge-exact results regardless of arrival
        interleaving.  Unregistered sources join on their first record
        instead (see
        :meth:`repro.streaming.reorder.ReorderBuffer.register_source`).
        Raises ``RuntimeError`` when event-time ingestion is not configured.
        """
        if self.reorder is None:
            raise RuntimeError(
                "register_source requires event-time ingestion: set "
                "EngineConfig(allowed_lateness=...) so the engine owns a reorder buffer"
            )
        self.reorder.register_source(source_id)

    def process_record(self, record: StreamEdge) -> List[MatchEvent]:
        """Ingest one record: a one-record batch, not counted as a ``process_batch`` call.

        With event-time ingestion configured the record is admitted into
        the reorder buffer instead; the returned events belong to whatever
        the admission released (possibly nothing, and possibly triggered by
        *earlier* records).  Call :meth:`flush` at end of stream.
        """
        return self._process_released(self._admit([record]))

    def process_batch(self, records: Sequence[StreamEdge]) -> List[MatchEvent]:
        """Ingest a batch of records; returns all events raised by the batch.

        Without event-time ingestion the batch runs as it is: internally
        out-of-order input is split at its inversion points and each maximal
        non-decreasing run is processed in arrival order (the paper's
        section 2.1 update step is a batch of edges).  The events --
        matches, detection times, trigger indices, order -- do not depend
        on how the stream is batched, in order or not: a late record is
        judged against the window as of the stream clock
        (:meth:`~repro.core.engine.StreamWorksEngine._dispatch_run`), so
        this equals feeding the records to :meth:`process_record` one at a
        time.  The one exception is a vertex-attribute predicate: a
        vertex's attributes live while the store keeps one of its edges,
        and the store evicts at the end of each run, so batching can decide
        whether an attribute written past the window is still read.

        With event-time ingestion configured (``allowed_lateness``) the
        batch is admitted into the reorder buffer instead: the
        watermark-closed prefix is released and run as one in-order batch,
        and late records are dropped and counted.  Every call counts
        towards ``checkpoint_every``.
        """
        events = self._process_released(self._admit(list(records)))
        self.batches_processed += 1
        self._maybe_autosave()
        return events

    def flush(self) -> List[MatchEvent]:
        """Release and process everything still held by the reorder buffer.

        Call at end of stream (nothing will arrive to advance the watermark
        past the buffered tail -- including the tail a min-watermark held
        for a slow source).  Returns the tail's events; a no-op returning
        ``[]`` when event-time ingestion is not configured.
        """
        if self.reorder is None:
            return []
        return self._process_released(self.reorder.flush())

    def process_stream(
        self, stream: Iterable[StreamEdge], batch_size: Optional[int] = None
    ) -> List[MatchEvent]:
        """Ingest an entire stream (per record, or in ``batch_size`` batches), then flush.

        Returns every event; they are also kept in the engine's collector.
        """
        events: List[MatchEvent] = []
        if batch_size is None:
            for record in stream:
                events.extend(self.process_record(record))
        else:
            for batch in batch_by_count(stream, batch_size):
                events.extend(self.process_batch(batch))
        events.extend(self.flush())
        return events

    # ------------------------------------------------------------------
    # release plumbing
    # ------------------------------------------------------------------
    def _admit(self, records: List[StreamEdge]) -> List[StreamEdge]:
        """Offer records to the reorder buffer; return what it releases."""
        if self.reorder is None:
            return records
        self.reorder.offer_all(records)
        return self.reorder.drain_ready()

    def _process_released(self, ready: List[StreamEdge]) -> List[MatchEvent]:
        """Process one release, stamped with the reorder buffer's watermark.

        A reorder buffer releases in timestamp order (``drain_ready`` and
        ``flush`` sort what they release), so its release runs as one
        ordered run, not re-scanned for inversions.
        """
        if self.reorder is not None:
            self.event_time_watermark = self.reorder.watermark
        return self._run_batch(ready, ordered=self.reorder is not None) if ready else []

    def _due_replan_checks(self) -> int:
        """Count the automatic replan checks the record cadence has earned.

        Called once per ``_run_batch``, after the batch's records are
        counted in ``edges_processed``, and always at a quiescent point
        (never inside a run).  A batch that crosses several cadence marks
        earns several catch-up checks, so the checks fall due at the same
        stream positions however the stream was batched or admitted.
        """
        next_check = self._next_replan_check
        every = self.engine_config.replan_check_every
        if next_check is None or every is None:
            return 0
        due = 0
        while self.edges_processed >= next_check:
            next_check += every
            due += 1
        self._next_replan_check = next_check
        return due

    def _maybe_autosave(self) -> None:
        """Checkpoint to the configured path when the batch cadence is due.

        An autosave failure must not look like a processing failure: by the
        time the cadence fires the batch IS fully processed (state mutated,
        events delivered to the collector), so the error is re-raised as a
        :class:`~repro.persistence.snapshot.SnapshotError` that says so --
        the caller recovers the batch's events from ``events()`` and must
        *not* re-feed the batch.
        """
        every = self.engine_config.checkpoint_every
        if every is None or self.batches_processed % every != 0:
            return
        from ..persistence.snapshot import SnapshotError

        path = self.engine_config.checkpoint_path
        try:
            self.checkpoint(str(path))
        except Exception as error:
            raise SnapshotError(
                f"autosave to {path!r} failed after batch {self.batches_processed}: "
                f"{error}. The batch itself was fully processed -- its events are "
                f"in engine.events(); do NOT re-feed it. Fix the checkpoint target "
                f"(or unset checkpoint_every) and continue."
            ) from error
