"""Command-line entry point: ``python -m repro.analysis [paths...]``.

Exit status: 0 clean, 1 findings, 2 usage/parse errors -- the same
convention as the test suite and ``scripts/check_docs.py``, so CI can
wire it in without adapters.  Every run parses every file and writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .core import AnalysisError, run_analysis
from .rules import ALL_RULES


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro-lint: AST-based determinism & state-integrity analysis. "
            "Suppress a finding with `# repro-lint: ignore[rule-id]` on its "
            "line; unused suppressions are errors."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (json is the machine-readable report)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule_class in ALL_RULES:
            print(f"{rule_class.id}: {rule_class.description}")
        return 0

    try:
        report = run_analysis(options.paths)
    except AnalysisError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    if options.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.format())
        status = "clean" if report.clean else f"{len(report.findings)} finding(s)"
        print(
            f"repro-lint: {status} -- {report.files_analyzed} files, "
            f"{len(report.rules_run)} rules, {report.duration_seconds:.2f}s"
        )
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
