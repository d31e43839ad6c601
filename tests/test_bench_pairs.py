"""``scripts/bench_pairs.py``: the arithmetic of its per-metric summary.

Only :func:`summarise` and :func:`quartiles` run here; the script's runs are
whole benchmark runs, far beyond tier-1's budget.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
summarise = bench_pairs.summarise


def test_quartiles_interpolate_between_ranks():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([10.0, 20.0, 30.0, 40.0]) == [17.5, 25.0, 32.5]
    assert bench_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_a_gain_won_in_nine_of_ten_pairs_beyond_the_parent_iqr_is_better():
    parent = [100.0, 101, 102, 103, 104, 100, 101, 102, 103, 104]
    change = [110.0, 111, 112, 113, 114, 110, 111, 112, 113, 99]
    judged = summarise(parent, change, "higher", 0.2)
    assert judged["wins"] == 9 and judged["pairs"] == 10
    assert judged["parent"] == [101.0, 102.0, 103.0]
    assert judged["change"][1] == 111.5
    assert judged["ratio"] == pytest.approx(111.5 / 102.0)
    assert judged["verdict"] == "better"


def test_eight_wins_in_ten_is_not_enough():
    parent = [100.0] * 10
    change = [110.0] * 8 + [90.0, 90.0]
    assert summarise(parent, change, "higher", 0.2)["verdict"] == "same"


def test_a_gap_inside_the_parent_iqr_is_not_a_gain():
    parent = [90.0, 95, 100, 105, 110, 90, 95, 100, 105, 110]
    change = [value + 1 for value in parent]
    judged = summarise(parent, change, "higher", 0.2)
    assert judged["wins"] == 10
    assert judged["verdict"] == "same"  # gap 1 < parent IQR 10


def test_lower_is_better_flips_the_direction():
    parent = [10.0, 10.1, 10.2, 10.3]
    change = [9.0, 9.1, 9.2, 9.3]
    assert summarise(parent, change, "lower", 0.25)["verdict"] == "better"
    assert summarise(change, parent, "lower", 0.25)["wins"] == 0


def test_a_move_past_the_bound_the_wrong_way_is_worse():
    parent = [50.0, 50.1, 50.2, 50.3]
    assert summarise(parent, [53.0, 53.1, 53.2, 53.3], "lower", 0.05)["verdict"] == "worse"
    # the same move inside the bound is not
    assert summarise(parent, [51.0, 51.1, 51.2, 51.3], "lower", 0.05)["verdict"] == "same"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [80.0, 100, 120, 100]
    change = [100.0, 101, 102, 103]
    assert summarise(parent, change, "higher", 0.05)["verdict"] == "unresolved"
    assert summarise(change, parent, "higher", 0.05)["verdict"] == "unresolved"


def test_a_wide_spread_still_resolves_when_every_change_run_reads_better():
    parent = [80.0, 100, 120, 100, 90, 110, 95, 105, 85, 115]
    change = [130.0, 150, 170, 150, 140, 160, 145, 155, 135, 165]
    judged = summarise(parent, change, "higher", 0.05)
    assert judged["wins"] == 10 and judged["verdict"] == "better"
    # one change run inside the parent's range: unresolved again
    assert summarise(parent, change[:-1] + [119.0], "higher", 0.05)["verdict"] == "unresolved"


def test_mismatched_or_empty_pairs_are_refused():
    with pytest.raises(ValueError):
        summarise([1.0, 2.0], [1.0], "higher", 0.2)
    with pytest.raises(ValueError):
        summarise([], [], "higher", 0.2)


def test_runs_are_summarised_per_metric_in_pair_order():
    specs = [
        {"name": "throughput_rps", "better": "higher", "bound": 0.2},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        {"name": "absent", "better": "lower", "bound": 0.25},
    ]

    def run(rps, rss):
        return {"failed": 0, "metrics": {"throughput_rps": {"value": rps}, "peak_rss_mb": {"value": rss}}}

    runs = {
        "parent": [run(100.0 + pair, 50.0) for pair in range(10)],
        "change": [run(120.0 + pair, 50.0) for pair in range(10)],
    }
    summary = bench_pairs.summarise_runs(runs, specs)
    assert list(summary) == ["throughput_rps", "peak_rss_mb"]
    assert summary["throughput_rps"]["wins"] == 10
    assert summary["throughput_rps"]["verdict"] == "better"
    assert summary["throughput_rps"]["parent"][1] == 104.5
    assert summary["peak_rss_mb"]["wins"] == 0 and summary["peak_rss_mb"]["verdict"] == "same"
