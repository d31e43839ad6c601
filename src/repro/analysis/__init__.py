"""repro-lint: AST-based determinism & state-integrity analysis for this repo.

Every conformance bug this reproduction has shipped and later hunted down
differentially belongs to a small set of mechanically detectable patterns
that violate the engine's byte-for-byte determinism contract:

* id-hash-ordered adjacency enumeration (PR 2) -- iteration order leaked
  from ``id()``/``hash()`` into event order;
* the empty-``ReorderBuffer``-is-falsy snapshot drop (PR 4) -- ``if x:``
  on an Optional whose empty value is meaningful.

This package catches those classes (and their relatives: unseeded RNG,
wall-clock reads on the hot path, ``state_dict`` fields that skip
persistence, state torn by a mid-update raise, undocumented metrics
keys) at *analysis time* instead of via hypothesis shrinking after the
fact.

Run it over a tree (one full pass: every file is parsed, nothing is
written)::

    PYTHONPATH=src python -m repro.analysis src/repro

Findings are suppressed per line with ``# repro-lint: ignore[rule-id]``;
an unused suppression is itself an error, so stale ignores cannot
accumulate.  The rule catalogue (with the historical bug each rule would
have caught) lives in ``docs/development.md``.
"""

from .core import AnalysisReport, Finding, Project, SourceFile, run_analysis
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "Project",
    "SourceFile",
    "run_analysis",
]
