"""Tier-1 smoke test of the benchmark (plain pytest collects it; no CI edit).

Two smoke-scale runs of ``bench/run.py`` through its command line: the
first must pass every check, the second is handed an ``expected.json`` with
one deliberately corrupted digest.  Between them they pin the contract
``BENCHMARK.json`` states -- every metric emitted once under a legal name,
count metrics exact for a seed, a wrong answer failing every record.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
LEGAL_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CORRUPTED = "disordered_multisource"


def _run(*arguments):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke", *arguments],
        cwd=ROOT_DIR,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``(clean run, its document, corrupted run, its document)``."""
    directory = tmp_path_factory.mktemp("bench_smoke")
    clean_path = directory / "clean.json"
    clean = _run("--json", str(clean_path))
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    for key in expected[CORRUPTED]:
        expected[CORRUPTED][key] = "0" * 64
    corrupted_expected = directory / "expected_corrupted.json"
    corrupted_expected.write_text(json.dumps(expected))
    corrupted_path = directory / "corrupted.json"
    corrupted = _run("--json", str(corrupted_path), "--expected", str(corrupted_expected))
    return (
        clean,
        json.loads(clean_path.read_text()),
        corrupted,
        json.loads(corrupted_path.read_text()),
    )


def test_contract_limits(contract):
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [spec["name"] for spec in contract["end_to_end"] + contract["per_layer"]]
    names += [workload["name"] for workload in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(LEGAL_NAME.match(name) for name in names)
    assert "setup_s" in {spec["name"] for spec in contract["end_to_end"]}


def test_every_metric_printed_once_per_workload(contract, smoke):
    clean = smoke[0]
    sections = clean.stdout.split("\n== ")
    sections[0] = sections[0].removeprefix("== ")
    by_workload = {section.split(":", 1)[0]: section for section in sections}
    assert set(by_workload) == {workload["name"] for workload in contract["workloads"]}
    for section in by_workload.values():
        printed = [line.split()[0] for line in section.splitlines()[1:] if line.startswith("  ")]
        for spec in contract["end_to_end"] + contract["per_layer"]:
            assert printed.count(spec["name"]) == 1, spec["name"]


def test_checks_pass_and_expected_digests_are_compared(smoke):
    clean, document = smoke[0], smoke[1]
    assert clean.returncode == 0, clean.stdout[-3000:] + clean.stderr[-3000:]
    for name, workload in document["workloads"].items():
        assert workload["correct"], (name, workload["checks"])
        assert workload["failed_share"] == 0.0
        assert workload["checks"]["matches_expected_json"], name


def test_count_metrics_repeat_exactly(contract, smoke):
    first, second = smoke[1], smoke[3]
    counts = [spec["name"] for spec in contract["per_layer"] if spec["unit"] == "count"]
    assert counts
    for name, workload in first["workloads"].items():
        for metric in counts:
            assert (
                workload["metrics"][metric]["value"]
                == second["workloads"][name]["metrics"][metric]["value"]
            ), (name, metric)


def test_corrupted_digest_fails_every_record(smoke):
    corrupted, document = smoke[2], smoke[3]
    assert corrupted.returncode != 0
    for name, workload in document["workloads"].items():
        assert workload["failed_share"] == (1.0 if name == CORRUPTED else 0.0), name
