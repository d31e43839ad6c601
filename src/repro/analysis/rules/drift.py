"""Drift rule: metrics keys vs docs.

``metrics-docs`` -- ``docs/operations.md`` documents every metrics key.
``scripts/check_docs.py`` already verifies this at *runtime* by
instantiating engines; this rule does it statically from the dict
literals inside ``metrics()`` / ``stats()`` methods, so a plain lint run
(no engine construction, no workload) catches the drift too, and so the
check covers nested keys and classes the runtime harness never reaches.
It is a whole-program rule: the emitted keys live in the per-file
summaries, and the rule reads ``docs/operations.md`` once per run.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from ..core import Finding, Project, Rule
from ..docsync import backticked_terms
from ..model import FileSummary

__all__ = ["MetricsDocsRule"]


class MetricsDocsRule(Rule):
    """Every string key built inside ``metrics()``/``stats()`` must be documented."""

    id = "metrics-docs"
    description = (
        "a key emitted by a metrics()/stats() method has no backticked "
        "mention in docs/operations.md; document it in the metrics tables"
    )

    _METHOD_NAMES = ("metrics", "stats")
    #: Subpackages whose metrics surfaces the operations guide documents.
    _SCOPES = ("core", "streaming")

    def check_project(self, project: Project) -> Iterable[Finding]:
        if project.root is None:
            return []
        operations = project.root / "docs" / "operations.md"
        if not operations.is_file():
            return []
        documented = backticked_terms(operations.read_text())

        findings: List[Finding] = []
        for summary in project.model.summaries:
            if not self._in_scope(summary):
                continue
            for class_summary in summary.classes.values():
                for method_name in self._METHOD_NAMES:
                    method = class_summary.methods.get(method_name)
                    if method is None:
                        continue
                    emitted: Set[Tuple[str, int]] = set(method.emitted_keys)
                    for key, line in sorted(emitted):
                        if key not in documented:
                            findings.append(
                                Finding(
                                    self.id,
                                    summary.display_path,
                                    line,
                                    f"{class_summary.name}.{method_name}() emits "
                                    f"key {key!r}, which docs/operations.md never "
                                    f"mentions in backticks",
                                )
                            )
        return findings

    def _in_scope(self, summary: FileSummary) -> bool:
        parts = summary.module.split(".")
        return len(parts) > 1 and parts[0] == "repro" and parts[1] in self._SCOPES
