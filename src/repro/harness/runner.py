"""Command-line entry point: run reproduction experiments and print their tables.

Run it as a module from the repository root::

    PYTHONPATH=src python -m repro.harness.runner --list
    PYTHONPATH=src python -m repro.harness.runner E2 E5 --scale 0.5
    PYTHONPATH=src python -m repro.harness.runner all --scale 1.0 --json results.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .experiments import ALL_EXPERIMENTS
from .reporting import format_report

__all__ = ["main", "run_experiments"]


def run_experiments(ids: Sequence[str], scale: float = 1.0) -> Dict[str, dict]:
    """Run the named experiments (or all of them for ``["all"]``) and return results."""
    if len(ids) == 1 and ids[0].lower() == "all":
        ids = list(ALL_EXPERIMENTS.keys())
    results: Dict[str, dict] = {}
    for experiment_id in ids:
        key = experiment_id.upper()
        if key not in ALL_EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; known ids: {', '.join(ALL_EXPERIMENTS)}"
            )
        results[key] = ALL_EXPERIMENTS[key](scale=scale)
    return results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamworks",
        description=(
            "Run StreamWorks reproduction experiments (see the experiments table "
            "in docs/architecture.md)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (E1..E10) or 'all' (default)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor (default 1.0)")
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument("--json", metavar="PATH", help="also dump all results as JSON to PATH")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id, function in ALL_EXPERIMENTS.items():
            first_line = (function.__doc__ or "").strip().splitlines()[0]
            print(f"{experiment_id}: {first_line}")
        return 0

    try:
        results = run_experiments(args.experiments, scale=args.scale)
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2

    for experiment_id, result in results.items():
        print(format_report(f"{experiment_id}: {result.get('experiment', '')}", result))
        print()

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, default=str)
        print(f"results written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
