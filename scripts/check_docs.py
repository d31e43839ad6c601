#!/usr/bin/env python
"""Documentation drift checker: links, anchors, symbols, config/metrics coverage.

Documentation rots in two ways: references break (moved files, renamed
headings) and content drifts from the code (a config field is added but
never documented, a metrics key is renamed).  This script catches both
classes mechanically, so CI fails when docs and code diverge:

1. **Relative links** in ``docs/*.md`` and ``README.md`` must point at
   files that exist; intra-doc ``#anchors`` must match a real heading.
2. **Symbol references** -- every backticked dotted name starting with
   ``repro.`` must import/resolve against the live package.
3. **EngineConfig coverage** -- the operations guide's config table must
   document *every* ``EngineConfig`` constructor parameter, and must not
   document parameters that no longer exist.
4. **Metrics coverage** -- every key returned by ``metrics()`` (single
   engine, sharded engine, reorder stats, async front-end stats) must
   appear in the operations guide.

Run from the repository root::

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import inspect
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

sys.path.insert(0, str(REPO_ROOT / "src"))

# the Markdown-parsing helpers are shared with the static drift rules in
# `repro.analysis.rules.drift`, so the two checkers cannot drift apart
from repro.analysis.docsync import (  # noqa: E402
    HEADING_PATTERN,
    LINK_PATTERN,
    SYMBOL_PATTERN,
    documented_fields,
    github_anchor,
)


def check_links(errors: list) -> None:
    anchors = {
        path: {github_anchor(h) for h in HEADING_PATTERN.findall(path.read_text())}
        for path in DOC_FILES
    }
    for path in DOC_FILES:
        for target in LINK_PATTERN.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, anchor = target.partition("#")
            resolved = (path.parent / file_part).resolve() if file_part else path
            if not resolved.exists():
                errors.append(f"{path.relative_to(REPO_ROOT)}: dead link -> {target}")
                continue
            if anchor and resolved in anchors and anchor not in anchors[resolved]:
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: dead anchor -> {target} "
                    f"(no heading slugs to {anchor!r})"
                )


def check_symbols(errors: list) -> None:
    for path in DOC_FILES:
        for symbol in sorted(set(SYMBOL_PATTERN.findall(path.read_text()))):
            parts = symbol.split(".")
            resolved = None
            for split in range(len(parts), 0, -1):
                module_name = ".".join(parts[:split])
                try:
                    resolved = importlib.import_module(module_name)
                except ImportError:
                    continue
                try:
                    for attribute in parts[split:]:
                        resolved = getattr(resolved, attribute)
                except AttributeError:
                    resolved = None
                break
            if resolved is None:
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: unresolvable symbol `{symbol}`"
                )


def check_engine_config_coverage(errors: list) -> None:
    from repro.core import EngineConfig

    operations = (REPO_ROOT / "docs" / "operations.md").read_text()
    documented = documented_fields(operations, "## EngineConfig reference")
    actual = set(inspect.signature(EngineConfig.__init__).parameters) - {"self"}
    for missing in sorted(actual - documented):
        errors.append(f"docs/operations.md: EngineConfig field {missing!r} is undocumented")
    for stale in sorted(documented - actual):
        errors.append(
            f"docs/operations.md: EngineConfig table documents {stale!r}, "
            f"which is not a constructor parameter"
        )


def check_metrics_coverage(errors: list) -> None:
    from repro.core import EngineConfig, ShardConfig, ShardedStreamEngine, StreamWorksEngine
    from repro.query.query_graph import QueryGraph
    from repro.streaming import AsyncIngestFrontend, StreamEdge

    def tiny_query():
        query = QueryGraph("q")
        query.add_vertex("a", "Host")
        query.add_vertex("b", "Host")
        query.add_edge("a", "b", "x")
        return query

    record = StreamEdge("1", "2", "x", 1.0, source_label="Host", target_label="Host")

    single = StreamWorksEngine(
        config=EngineConfig(
            allowed_lateness=1.0,
            dedup_memory_budget=16,
            sketch_stats=True,
        )
    )
    single.register_query(tiny_query(), window=5.0)
    single.process_batch([record])
    sharded = ShardedStreamEngine(config=ShardConfig(shard_count=2))
    sharded.register_query(tiny_query(), window=5.0)
    sharded.process_batch([record])
    frontend = AsyncIngestFrontend(single)
    frontend.close()

    operations = (REPO_ROOT / "docs" / "operations.md").read_text()
    sketch = single.metrics()["sketch"]
    surfaces = {
        "single-engine metrics": single.metrics(),
        "reorder stats": single.metrics()["reorder"],
        "sharded metrics": sharded.metrics(),
        "async front-end stats": frontend.stats(),
        # the sketch surface is nested one level; flatten so every leaf
        # counter (and the sub-surface names themselves) is enforced
        "sketch stats": {**sketch, **sketch["dedup_memory"]},
        # flat already, but enforced as its own surface so a new columnar
        # counter cannot ship undocumented
        "columnar stats": single.metrics()["columnar"],
    }
    for surface, payload in surfaces.items():
        for key in payload:
            if f"`{key}`" not in operations:
                errors.append(
                    f"docs/operations.md: {surface} key {key!r} is undocumented"
                )


def main() -> int:
    errors: list = []
    check_links(errors)
    check_symbols(errors)
    check_engine_config_coverage(errors)
    check_metrics_coverage(errors)
    if errors:
        print(f"documentation drift: {len(errors)} problem(s)")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"docs OK: {len(DOC_FILES)} files, links/anchors/symbols/config/metrics checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
