"""Tests for the experiment harness: reporting, runner CLI and small-scale experiments."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.harness import ALL_EXPERIMENTS, format_report, format_table
from repro.harness.reporting import monotonic_non_decreasing, save_json, speedup
from repro.harness.runner import main, run_experiments


class TestReporting:
    def test_format_table_alignment_and_columns(self):
        rows = [{"name": "alpha", "value": 1.5}, {"name": "b", "value": 1000.0}]
        table = format_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "1,000" in table
        assert format_table([]) == "(no rows)"
        narrowed = format_table(rows, columns=["value"])
        assert "alpha" not in narrowed

    def test_format_report_includes_scalars_and_rows(self):
        result = {"experiment": "X", "speedup": 3.14159, "rows": [{"a": 1}]}
        report = format_report("Title", result)
        assert "== Title ==" in report
        assert "speedup: 3.14" in report
        assert "a" in report

    def test_monotonic_helper(self):
        assert monotonic_non_decreasing([1, 1, 2, 5])
        assert not monotonic_non_decreasing([1, 3, 2])
        assert monotonic_non_decreasing([])

    def test_speedup_guards_zero(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(10.0, 0.0) == float("inf")

    def test_save_json(self, tmp_path):
        path = tmp_path / "result.json"
        save_json(str(path), {"rows": [{"a": 1}], "x": 2})
        assert json.loads(path.read_text())["x"] == 2


class TestRunner:
    def test_run_experiments_selects_ids(self):
        results = run_experiments(["E10"], scale=0.1)
        assert set(results) == {"E10"}
        assert results["E10"]["rows"]

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiments(["E99"])

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "E10:" in out

    def test_module_entry_point_runs_clean_under_warnings_as_errors(self):
        """Importing the package must not import the runner, or runpy warns
        that ``repro.harness.runner`` is already in ``sys.modules``."""
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.harness.runner", "--list"],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "E10:" in completed.stdout

    def test_cli_runs_and_writes_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["E10", "--scale", "0.1", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "E10" in out
        assert path.exists()

    def test_cli_unknown_experiment_exit_code(self, capsys):
        assert main(["E99"]) == 2


class TestExperimentsSmallScale:
    """Run each experiment at a tiny scale and check its structural contract."""

    SCALE = 0.12

    def test_e1_decomposition(self):
        result = ALL_EXPERIMENTS["E1"](scale=self.SCALE)
        assert result["primitives"] >= 2
        kinds = {row["kind"] for row in result["rows"]}
        assert {"leaf", "root"} <= kinds
        assert result["complete_matches"] >= result["planted_bursts"]
        for row in result["rows"]:
            assert row["matches_stored"] <= row["matches_inserted"]

    def test_e2_cyber_queries(self):
        result = ALL_EXPERIMENTS["E2"](scale=self.SCALE)
        assert result["all_attacks_detected"]
        assert {row["query"] for row in result["rows"]} == {
            "smurf_ddos", "worm_propagation", "port_scan", "data_exfiltration"
        }
        for row in result["rows"]:
            assert row["mean_detection_latency"] < row["window"]

    def test_e3_news_map(self):
        result = ALL_EXPERIMENTS["E3"](scale=self.SCALE)
        assert result["planted_pairs_detected"] == result["planted_pairs_total"]
        assert all(row["events"] > 0 for row in result["rows"])

    def test_e4_ddos_cascade(self):
        result = ALL_EXPERIMENTS["E4"](scale=self.SCALE)
        assert result["subnets_detected"] == result["subnets_attacked"]
        assert result["cascade_order_preserved"]
        for row in result["rows"]:
            assert row["detection_lag"] >= 0.0
            assert row["detection_lag"] < 10.0

    def test_e5_query_plans(self):
        result = ALL_EXPERIMENTS["E5"](scale=self.SCALE)
        assert result["all_plans_agree_on_matches"]
        strategies = {row["strategy"] for row in result["rows"]}
        assert len(strategies) == 4
        for series in result["fraction_series"].values():
            assert monotonic_non_decreasing(series) or max(series, default=0) <= 1.0

    def test_e6_throughput(self):
        result = ALL_EXPERIMENTS["E6"](scale=self.SCALE)
        assert len(result["rows"]) == 4
        for row in result["rows"]:
            assert row["edges_per_s"] > 0
            assert row["latency_p99_ms"] >= row["latency_p50_ms"]

    def test_e7_incremental_vs_repeated(self):
        result = ALL_EXPERIMENTS["E7"](scale=self.SCALE)
        assert result["incremental_finds_all_repeated_finds"]
        assert result["repeated_missed_matches"] >= 0
        assert result["incremental_total_s"] > 0 and result["repeated_total_s"] > 0

    def test_e8_selectivity_ablation(self):
        result = ALL_EXPERIMENTS["E8"](scale=self.SCALE)
        assert result["selective_never_worse"]
        workloads = {row["workload"] for row in result["rows"]}
        assert len(workloads) == 2
        # within each workload both strategies must agree on match counts
        by_workload = {}
        for row in result["rows"]:
            by_workload.setdefault(row["workload"], set()).add(row["complete_matches"])
        assert all(len(counts) == 1 for counts in by_workload.values())

    def test_e9_summarization(self):
        result = ALL_EXPERIMENTS["E9"](scale=self.SCALE)
        assert result["rows"]
        for row in result["rows"]:
            assert row["edges_per_s"] > 0
            if not row["triads"]:
                assert row["triad_patterns"] == 0
        assert result["estimate_accuracy"]

    def test_e10_window_sweep(self):
        result = ALL_EXPERIMENTS["E10"](scale=self.SCALE)
        assert result["events_monotone_in_window"]
        assert result["all_spans_below_window"]
        events = [row["events"] for row in result["rows"]]
        assert events == sorted(events)
