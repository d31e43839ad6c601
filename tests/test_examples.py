"""Smoke tests: the shipped examples must run end to end on the public API.

The examples are the documentation users copy from, so they are executed (as
scripts, the way a user would run them) and their output is checked for the
landmarks each scenario promises.  The heavier examples are trimmed via the
same public configuration knobs a user has.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(module_path, monkeypatch, capsys):
    """Execute an example script and return its captured stdout."""
    monkeypatch.setattr(sys, "argv", [str(module_path)])
    runpy.run_path(str(module_path), run_name="__main__")
    return capsys.readouterr().out


class TestQuickstart:
    def test_quickstart_detects_the_related_articles(self, monkeypatch, capsys):
        out = run_example(EXAMPLES_DIR / "quickstart.py", monkeypatch, capsys)
        assert "Registered query" in out
        assert "match at t=31.0" in out
        assert "article:100" in out and "article:300" in out
        # the unrelated article must not appear in any match line
        match_section = out.split("Feeding the stream...")[1]
        assert "article:200" not in match_section.split("StreamWorksEngine")[0]


class TestMultisourceIngest:
    def test_multisource_example_shows_the_three_behaviours(self, monkeypatch, capsys):
        out = run_example(EXAMPLES_DIR / "multisource_ingest.py", monkeypatch, capsys)
        # per-source watermarks keep every skewed record
        assert "released 6/6 records, late: 0" in out
        assert "per-source watermarks:" in out
        # the global-watermark contrast drops the slow collector's records
        assert "would have dropped 2 of 6 records" in out
        # idle timeout marks the silent collector
        assert "idle sources at end of stream: ['B']" in out


class TestDomainExamples:
    @pytest.mark.slow
    def test_cyber_monitoring_alerts_on_every_attack(self, monkeypatch, capsys):
        out = run_example(EXAMPLES_DIR / "cyber_monitoring.py", monkeypatch, capsys)
        for query_name in ("smurf_ddos", "worm_propagation", "port_scan", "data_exfiltration"):
            assert f"ALERT {query_name}" in out
        assert "Smurf detections by amplifier subnet" in out

    @pytest.mark.slow
    def test_news_monitoring_reports_planted_bursts(self, monkeypatch, capsys):
        out = run_example(EXAMPLES_DIR / "news_monitoring.py", monkeypatch, capsys)
        assert "ALERT emerging_story" in out
        assert "kw:politics" in out
        assert "Emerging stories by location and time bucket" in out

    @pytest.mark.slow
    def test_query_planning_compares_strategies(self, monkeypatch, capsys):
        out = run_example(EXAMPLES_DIR / "query_planning.py", monkeypatch, capsys)
        assert "strategy: selectivity" in out
        assert "strategy: anti_selective" in out
        assert "All strategies agree on the set of complete matches: True" in out
