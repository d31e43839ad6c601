"""The repro-lint framework: files, suppressions, the rule runner.

The moving parts, in the order the runner uses them:

* :class:`SourceFile` -- one parsed module: path, text, AST, and the
  per-line ``# repro-lint: ignore[rule-id]`` suppressions found in it.
* :class:`~repro.analysis.model.FileSummary` -- the parsed file reduced
  to the facts the whole-program rules need (built by
  :func:`~repro.analysis.model.build_file_summary`).
* :class:`Project` -- one run's view: the parsed files, the repository
  root, and the :class:`~repro.analysis.model.ProjectModel` built from
  every file's summary.  Per-file rules implement ``check_file``;
  whole-program rules implement ``check_project`` and read the model.
* :func:`run_analysis` -- parse every file, run the per-file rules on
  each and the whole-program rules once, then apply suppressions and
  report *unused* suppressions as findings of their own (rule id
  ``unused-suppression``), so a fixed finding's stale ignore comment
  fails the run until it is deleted.

Suppressions are line-scoped: the comment must sit on the exact line the
finding is reported at (for multi-line statements, the line of the
offending expression).  Several ids may share one comment::

    self.adaptive = ...  # repro-lint: ignore[snapshot-coverage]
    x = f(a, b)  # repro-lint: ignore[set-iteration,unseeded-random]
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .model import ProjectModel, build_file_summary, optional_inner_names

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "UNUSED_SUPPRESSION",
    "collect_files",
    "detect_root",
    "optional_inner_names",
    "run_analysis",
]

#: Rule id under which stale ignore comments are reported.
UNUSED_SUPPRESSION = "unused-suppression"

_SUPPRESSION_PATTERN = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_,\- ]+)\]")


class AnalysisError(Exception):
    """A file could not be analysed (unreadable, syntax error)."""


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe payload (the machine-readable output unit)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def format(self) -> str:
        """Human one-liner: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({self.format()!r})"


class SourceFile:
    """One parsed Python module plus its suppression comments."""

    def __init__(self, path: Path, display_path: str, text: str):
        self.path = path
        #: Path as reported in findings (relative to the invocation root).
        self.display_path = display_path
        self.text = text
        try:
            self.tree = ast.parse(text)
        except SyntaxError as error:
            raise AnalysisError(f"{display_path}: cannot parse: {error}") from error
        #: ``{line number: {rule ids suppressed on that line}}``.
        #: Scanned from real COMMENT tokens, so the marker inside a string
        #: or docstring (e.g. documentation *about* suppressions) is inert.
        self.suppressions: Dict[int, Set[str]] = {}
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            tokens = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_PATTERN.search(token.string)
            if match:
                ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
                if ids:
                    self.suppressions[token.start[0]] = ids

    def is_suppressed(self, rule: str, line: int) -> bool:
        return rule in self.suppressions.get(line, set())

    def segment(self, node: ast.AST) -> str:
        """Source text of a node (best effort, for messages)."""
        segment = ast.get_source_segment(self.text, node)
        return segment if segment is not None else "<expression>"


class Project:
    """One run's view: parsed files, repository root, the whole-tree model."""

    def __init__(self, files: Sequence[SourceFile], root: Optional[Path] = None):
        self.files = list(files)
        #: Directory the analysed tree lives under (used to locate ``docs/``
        #: for the metrics-docs rule); ``None`` disables checks that need
        #: the repository layout.
        self.root = root
        self.model = ProjectModel([build_file_summary(source) for source in self.files])

    @property
    def len_classes(self) -> Set[str]:
        """Classes defining ``__len__`` -- empty instances are falsy."""
        return self.model.len_classes

    @property
    def optional_len_attrs(self) -> Set[str]:
        """Attribute names known (project-wide) to hold ``Optional[<len class>]``.

        An attribute qualifies when an annotated assignment anywhere in the
        tree declares it ``Optional[C]`` / ``C | None`` / ``Union[C, None]``
        with ``C`` a class defining ``__len__``.  Truthiness tests on these
        attributes are exactly the PR 4 bug class: the empty-but-present
        value is falsy and silently takes the ``None`` branch.
        """
        return self.model.optional_len_attrs


class Rule:
    """Base class: subclass and override ``check_file`` and/or ``check_project``.

    ``check_file`` sees one file; anything that reads cross-file state
    belongs in ``check_project``, which runs once per run over the model.
    """

    id: str = ""
    description: str = ""

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


class AnalysisReport:
    """The outcome of one run: findings (suppressions applied) + run metadata."""

    def __init__(
        self,
        findings: List[Finding],
        files_analyzed: int,
        rules_run: Sequence[str],
        duration_seconds: float,
    ):
        self.findings = findings
        self.files_analyzed = files_analyzed
        self.rules_run = list(rules_run)
        self.duration_seconds = duration_seconds

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable report (the ``--format json`` payload)."""
        return {
            "clean": self.clean,
            "files_analyzed": self.files_analyzed,
            "rules_run": self.rules_run,
            "duration_seconds": round(self.duration_seconds, 3),
            "finding_count": len(self.findings),
            "findings": [finding.to_dict() for finding in self.findings],
        }


def detect_root(paths: Sequence[str]) -> Optional[Path]:
    """Best-effort repository root: walk up from the first path to ``docs/``/``.git``."""
    if not paths:
        return None
    anchor = Path(paths[0]).resolve()
    for candidate in [anchor] + list(anchor.parents):
        if (candidate / "docs").is_dir() or (candidate / ".git").is_dir():
            return candidate
    return None


def _expand_paths(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files."""
    expanded: List[Path] = []
    for raw in paths:
        base = Path(raw)
        if base.is_dir():
            expanded.extend(
                sorted(
                    path for path in base.rglob("*.py") if "__pycache__" not in path.parts
                )
            )
        elif base.is_file():
            expanded.append(base)
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    return expanded


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as error:
        raise AnalysisError(f"{path}: cannot read: {error}") from error


def collect_files(paths: Sequence[str]) -> List[SourceFile]:
    """Expand ``paths`` (files or directories) into parsed :class:`SourceFile`\\ s."""
    return [
        SourceFile(path, str(path), _read_text(path)) for path in _expand_paths(paths)
    ]


def run_analysis(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    sources: Optional[Sequence[SourceFile]] = None,
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Run every rule over ``paths`` and return the suppression-filtered report.

    ``sources`` bypasses the filesystem (tests hand in synthetic
    :class:`SourceFile` objects); ``root`` overrides the repository-root
    guess used to locate ``docs/`` for the metrics-docs rule.
    """
    from .rules import ALL_RULES

    started = time.perf_counter()
    if rules is None:
        rules = [rule_class() for rule_class in ALL_RULES]
    rule_ids = [rule.id for rule in rules]
    if sources is None:
        sources = collect_files(paths)
    if root is None:
        root = detect_root(paths)
    project = Project(sources, root=root)

    raw: List[Finding] = []
    for rule in rules:
        for source in project.files:
            raw.extend(rule.check_file(source, project))
        raw.extend(rule.check_project(project))

    # ------------------------------------------------------------------
    # suppressions, stale-suppression findings, the report
    # ------------------------------------------------------------------
    by_path = {source.display_path: source for source in project.files}
    used: Set[Tuple[str, int, str]] = set()
    findings: List[Finding] = []
    for finding in raw:
        source_for = by_path.get(finding.path)
        if source_for is not None and source_for.is_suppressed(finding.rule, finding.line):
            used.add((finding.path, finding.line, finding.rule))
            continue
        findings.append(finding)

    known_ids = set(rule_ids)
    for source in project.files:
        for line, ids in sorted(source.suppressions.items()):
            for rule_id in sorted(ids):
                if rule_id not in known_ids:
                    findings.append(
                        Finding(
                            UNUSED_SUPPRESSION,
                            source.display_path,
                            line,
                            f"suppression names unknown rule {rule_id!r}",
                        )
                    )
                elif (source.display_path, line, rule_id) not in used:
                    findings.append(
                        Finding(
                            UNUSED_SUPPRESSION,
                            source.display_path,
                            line,
                            f"suppression for {rule_id!r} matches no finding; delete it",
                        )
                    )

    findings.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    return AnalysisReport(
        findings=findings,
        files_analyzed=len(project.files),
        rules_run=rule_ids,
        duration_seconds=time.perf_counter() - started,
    )
