"""E15 / multi-source event time: per-source watermarks vs one global watermark.

Real deployments merge per-collector streams whose clocks skew
independently.  With ONE global watermark the operator faces a lose-lose
choice: size the lateness for each collector's own (small) disorder and the
fast collector's clock pushes every slow collector's records past the
horizon (silent loss), or size it for the worst-case inter-source skew and
every record is released that late, always.  Per-source watermarks
(min-release across active sources) dissolve the dilemma: nothing is lost
at per-source lateness, and the release horizon tracks the collectors'
*actual current* lag instead of the provisioned worst case.  The dual
failure mode -- one silent collector freezing the min-watermark -- is
bounded by the idle-source timeout.

Assertions (all deterministic, so they run at every scale including the CI
smoke):

* ``global_small`` (honest per-source lateness, global watermark) **loses
  records** (``recall < 1``) while ``per_source`` keeps every one;
* ``per_source`` releases **fresher** than ``global_exact`` (the
  worst-case-provisioned global watermark): lower mean staleness, no
  larger peak buffer;
* the idle-source timeout keeps the held tail bounded when a collector
  goes silent (vs the frozen min-watermark);
* the multi-source engine -- single and sharded -- emits exactly the
  sorted-merge oracle's match multiset with zero late records.

Runnable standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_multisource.py --tiny
"""

from repro.harness.experiments import experiment_multisource_ingest
from repro.harness.reporting import format_report


def check_result(result):
    """Shared assertions for the pytest and CLI entry points."""
    assert result["multisource_exact"], (
        "multi-source run diverged from the sorted-merge oracle"
    )
    assert result["multisource_sharded_exact"], (
        "sharded multi-source run diverged from the sorted-merge oracle"
    )
    assert result["multisource_zero_late"], (
        "per-source watermarks declared records late on per-source-ordered input"
    )
    assert result["per_source_recall"] == 1.0
    assert result["global_small_recall"] < 1.0, (
        "the global-watermark baseline was expected to lose skewed-source records"
    )
    assert result["staleness_improvement"] > 1.0, (
        f"per-source release staleness "
        f"({result['staleness_per_source']:.3f}) should undercut the "
        f"worst-case global horizon ({result['staleness_global_exact']:.3f})"
    )
    assert result["peak_depth_per_source"] <= result["peak_depth_global_exact"]
    assert result["idle_timeout_tail"] < result["idle_frozen_tail"], (
        "idle-source timeout failed to unfreeze the horizon of a silent collector"
    )


def test_multisource_ingest(run_experiment):
    result = run_experiment(
        experiment_multisource_ingest,
        "E15 -- per-source watermarks vs a global watermark (skewed collectors)",
    )
    check_result(result)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test scale (CI): all assertions still run -- they are "
        "deterministic release/recall properties, not wall-clock thresholds",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    parser.add_argument(
        "--sources", type=int, default=4, help="number of skewed collectors"
    )
    args = parser.parse_args()

    scale = 0.1 if args.tiny else args.scale
    result = experiment_multisource_ingest(scale=scale, source_count=args.sources)
    print(
        format_report(
            "E15 -- per-source watermarks vs a global watermark (skewed collectors)",
            result,
        )
    )
    check_result(result)
    print(
        f"conformance OK (single, sharded); global watermark at honest "
        f"lateness kept {result['global_small_recall']:.1%} of records, per-source "
        f"kept 100%; release staleness {result['staleness_improvement']:.2f}x "
        f"fresher than the worst-case horizon; silent-collector tail "
        f"{result['idle_frozen_tail']} -> {result['idle_timeout_tail']} with the "
        f"idle timeout"
    )
