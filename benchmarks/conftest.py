"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one paper artefact (figure or table) by running
the corresponding harness experiment under ``pytest-benchmark`` and printing
the table it produces.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated tables; the experiments table in
``docs/architecture.md`` lists which paper artefact each one reproduces.
The workload scale can be adjusted with ``--repro-scale`` (default 1.0).
"""

from __future__ import annotations

import pytest

from repro.harness.reporting import format_report


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="1.0",
        help="workload scale factor for the reproduction benchmarks (default 1.0)",
    )


@pytest.fixture(scope="session")
def repro_scale(request) -> float:
    """Workload scale factor shared by all benchmarks."""
    return float(request.config.getoption("--repro-scale"))


@pytest.fixture
def run_experiment(benchmark, repro_scale):
    """Run a harness experiment exactly once under the benchmark timer and report it."""

    def runner(experiment, title, **kwargs):
        result = benchmark.pedantic(
            lambda: experiment(scale=repro_scale, **kwargs), rounds=1, iterations=1
        )
        print()
        print(format_report(title, result))
        return result

    return runner
