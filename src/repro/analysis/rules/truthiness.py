"""Optional-truthiness: ``if x:`` on values whose *empty* state is meaningful.

PR 4's checkpoint bug in one line: ``ReorderBuffer`` defines ``__len__``,
so an empty-but-configured buffer is falsy, and ``state["reorder"] if
engine.reorder else None`` silently recorded "no reorder subsystem" for an
engine that *had* one (just momentarily drained).  Restore then rebuilt
the engine without event-time support.  The same trap exists for every
``Optional[C]`` where ``C`` has ``__len__`` (``TriadCensus``,
``LabelDistribution``, ``GraphSummary``...): the author means "is it
configured?" but writes a test that also fails when it is merely empty.

This rule flags truthiness tests -- ``if x:``, ``while x:``, ``x and/or
y``, ``a if x else b``, ``not x`` -- whose operand is

* ``self.<attr>`` / ``<name>.<attr>`` where ``<attr>`` is annotated
  ``Optional[C]`` anywhere in the project with ``C`` defining ``__len__``
  (the project-wide index in ``ProjectModel.optional_len_attrs``), or
* a bare parameter of the enclosing function annotated the same way.

The candidate sites are extracted into each file's summary at parse time
(:func:`repro.analysis.model._truthiness_sites`), so this is a
whole-program rule: it cross-references the recorded sites against the
project-wide indexes.

The fix is to spell the intent: ``if x is not None:`` (configured?) or
``if x is not None and len(x):`` (configured *and* non-empty?).
"""

from __future__ import annotations

from typing import Iterable, List

from ..core import Finding, Project, Rule

__all__ = ["OptionalTruthinessRule"]


class OptionalTruthinessRule(Rule):
    """Flag truthiness tests on Optional-of-``__len__``-class values."""

    id = "optional-truthiness"
    description = (
        "an Optional of a container-like class (defines __len__) is falsy "
        "when empty, so `if x:` / `x or default` silently treats an "
        "empty-but-configured value as absent; test `x is not None`"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        model = project.model
        for summary in model.summaries:
            for kind, name, inner, spelled, line in summary.truthiness_sites:
                if kind == "attr":
                    risky = name in model.optional_len_attrs
                else:
                    risky = bool(set(inner) & model.len_classes)
                if risky:
                    findings.append(
                        Finding(
                            self.id,
                            summary.display_path,
                            line,
                            f"truthiness test on Optional container "
                            f"`{spelled}` treats the empty "
                            f"value as None; use `is not None`",
                        )
                    )
        return findings
