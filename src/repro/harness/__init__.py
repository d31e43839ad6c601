"""Experiment harness: per-figure/table reproduction functions, reporting, CLI.

The CLI and :func:`~repro.harness.runner.run_experiments` live in
:mod:`repro.harness.runner`, which is not imported here, so that
``python -m repro.harness.runner`` runs it as a fresh ``__main__`` module.
"""

from .experiments import ALL_EXPERIMENTS
from .reporting import format_report, format_table, monotonic_non_decreasing, save_json, speedup

__all__ = [
    "ALL_EXPERIMENTS",
    "format_report",
    "format_table",
    "monotonic_non_decreasing",
    "save_json",
    "speedup",
]
