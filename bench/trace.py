"""Layer-boundary spans, recorded from outside the engine.

The traced pass installs class-level wrappers around each layer's public
callables (``install``), so every call records one span
``{name, start, end, parent, batch}``.  Spans live in flat arrays in memory
and are written to a JSON-lines file when the pass ends.  A span's *self*
time is its duration minus the durations of its direct children.

Nothing called more than ~10x per record is wrapped (compiled ``check``
closures, ``InternTable.intern``, ``DedupMemory.seen``): that time lands in
the parent's self time, and the wrappers' own cost lands there too -- which
is why ``trace.overhead_ratio`` is reported next to every traced number.

The wrappers are installed only inside the traced child process, which
exits afterwards; no other pass ever runs patched code.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

__all__ = ["Tracer", "install", "SPAN_LAYERS"]

#: span name -> layer it is charged to (self time), in display order.
SPAN_LAYERS: Dict[str, str] = {
    "engine.process_batch": "engine",
    "engine.flush": "engine",
    "reorder.offer": "reorder",
    "reorder.drain": "reorder",
    "graph.ingest": "graph",
    "graph.evict": "graph",
    "summarizer.observe": "summarizer",
    "replan.check": "replan",
    "dispatch.front": "dispatch",
    "dispatch.candidates": "dispatch",
    "matcher.expire": "matcher",
    "matcher.search": "matcher",
    "local_search.find": "local_search",
    "join.try": "join",
    "emit.trigger": "emit",
    "sink.deliver": "emit",
}


class Tracer:
    """In-memory span store: parallel arrays, one slot per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.batch = array("l")
        self._stack: List[int] = []
        #: Index of the batch the load loop is offering (-1 outside the loop).
        self.current_batch = -1
        #: ``{span name: calls that returned something truthy}`` (opt-in per wrap).
        self.non_empty: Dict[str, int] = {}

    def wrap(self, name: str, function: Callable, count_non_empty: bool = False) -> Callable:
        """Return ``function`` wrapped so each call records a span called ``name``.

        With ``count_non_empty`` the calls returning a truthy value are also
        counted (after the span closes), for useful-outcome ratios.
        """
        ident = self._name_ids.setdefault(name, len(self.names))
        if ident == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, batch = (
            self.name_id, self.start, self.end, self.parent, self.batch,
        )
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            batch.append(self.current_batch)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        if not count_non_empty:
            return traced
        non_empty = self.non_empty
        non_empty.setdefault(name, 0)

        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            if result:
                non_empty[name] += 1
            return result

        return counted

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Return ``{name: (calls, inclusive seconds, self seconds)}``."""
        count = len(self.start)
        child_time = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            above = parent[index]
            if above >= 0:
                child_time[above] += end[index] - start[index]
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        name_id = self.name_id
        for index in range(count):
            ident = name_id[index]
            duration = end[index] - start[index]
            calls[ident] += 1
            inclusive[ident] += duration
            own[ident] += duration - child_time[index]
        return {
            name: (calls[ident], inclusive[ident], own[ident])
            for ident, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no parent."""
        start, end, parent = self.start, self.end, self.parent
        return sum(end[i] - start[i] for i in range(len(start)) if parent[i] < 0)

    def write_jsonl(self, path: str) -> None:
        """Write one ``{name, start, end, parent, batch}`` object per span."""
        names = [json.dumps(name) for name in self.names]
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self.start)):
                handle.write(
                    f'{{"name": {names[self.name_id[index]]}, "start": {self.start[index]!r}, '
                    f'"end": {self.end[index]!r}, "parent": {self.parent[index]}, '
                    f'"batch": {self.batch[index]}}}\n'
                )


def install(tracer: Tracer) -> None:
    """Patch the layer boundaries with span wrappers (traced child only)."""
    from repro.core import matcher as matcher_module
    from repro.core.dispatch import DispatchIndex
    from repro.core.engine import StreamWorksEngine
    from repro.core.local_search import LocalSearcher
    from repro.core.matcher import ContinuousQueryMatcher
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.stats.summarizer import StreamSummarizer
    from repro.streaming.events import MultiSink
    from repro.streaming.reorder import ReorderBuffer

    targets = [
        (StreamWorksEngine, "process_batch", "engine.process_batch"),
        (StreamWorksEngine, "flush", "engine.flush"),
        (StreamWorksEngine, "run_replan_check", "replan.check"),
        (StreamWorksEngine, "_emit_trigger", "emit.trigger"),
        (ReorderBuffer, "offer_all", "reorder.offer"),
        (ReorderBuffer, "drain_ready", "reorder.drain"),
        (ReorderBuffer, "flush", "reorder.drain"),
        (DynamicGraph, "ingest", "graph.ingest"),
        (DynamicGraph, "evict_expired", "graph.evict"),
        (StreamSummarizer, "observe_batch", "summarizer.observe"),
        (DispatchIndex, "front_rejects", "dispatch.front"),
        (DispatchIndex, "candidates", "dispatch.candidates"),
        (ContinuousQueryMatcher, "expire_partials", "matcher.expire"),
        (ContinuousQueryMatcher, "process_edge_leaves", "matcher.search"),
        (LocalSearcher, "find", "local_search.find"),
        (MultiSink, "deliver", "sink.deliver"),
    ]
    for owner, attribute, name in targets:
        setattr(
            owner,
            attribute,
            tracer.wrap(name, getattr(owner, attribute), count_non_empty=name == "local_search.find"),
        )
    # the matcher calls the join through its module global
    matcher_module.try_join = tracer.wrap("join.try", matcher_module.try_join)
