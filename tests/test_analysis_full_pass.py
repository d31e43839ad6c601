"""repro-lint answers from the tree on disk, in one pass, and leaves nothing behind.

Every run parses every file and runs every rule, so there is no state
between runs that could serve a stale answer: an edit, a fix or a
deletion shows in the very next report, per-file and whole-program
findings alike.  A run writes no file.  The CLI takes only paths,
``--format`` and ``--list-rules``; the cache options it once had are
usage errors, as are unparsable files and missing paths (exit 2).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, run_analysis
from repro.analysis.core import AnalysisError

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"

BAD = (FIXTURES / "repro" / "streaming" / "set_iteration_bad.py").read_text()
GOOD = (FIXTURES / "repro" / "streaming" / "set_iteration_good.py").read_text()

#: a snapshot-covered class whose loader never reads ``phantom`` back: a
#: finding of the whole-program ``snapshot-coverage`` rule
PHANTOM = (
    "class Box:\n"
    "    def __init__(self):\n"
    "        self.level = 0\n"
    "        self.phantom = 0\n"
    "    def state_dict(self):\n"
    '        return {"level": self.level}\n'
    "    @classmethod\n"
    "    def from_state(cls, state):\n"
    "        box = cls()\n"
    '        box.level = state["level"]\n'
    "        return box\n"
)


def make_tree(tmp_path):
    tree = tmp_path / "repro" / "streaming"
    tree.mkdir(parents=True)
    (tree / "flaky.py").write_text(BAD)
    (tree / "steady.py").write_text(GOOD)
    return tmp_path / "repro"


def rendered(report):
    return [finding.format() for finding in report.findings]


def analyse(tree, **kwargs):
    return run_analysis([str(tree)], **kwargs)


def listing(directory):
    """Every path under ``directory`` with its size and modification time."""
    return {
        str(path): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(Path(directory).rglob("*"))
    }


CLI_ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )


# ----------------------------------------------------------------------
# every run answers from the tree as it is now
# ----------------------------------------------------------------------
def test_an_edited_file_is_answered_from_disk_on_the_next_run(tmp_path):
    tree = make_tree(tmp_path)
    assert not analyse(tree).clean

    (tree / "streaming" / "flaky.py").write_text(GOOD)  # bug fixed on disk
    fixed = analyse(tree)
    assert fixed.clean, rendered(fixed)
    assert fixed.files_analyzed == 2

    (tree / "streaming" / "flaky.py").write_text(BAD)  # bug reintroduced
    assert {finding.rule for finding in analyse(tree).findings} == {"set-iteration"}


def test_a_deleted_file_leaves_no_findings_behind(tmp_path):
    tree = make_tree(tmp_path)
    assert not analyse(tree).clean
    (tree / "streaming" / "flaky.py").unlink()
    report = analyse(tree)
    assert report.clean, rendered(report)
    assert report.files_analyzed == 1


def test_a_whole_program_finding_follows_an_edit(tmp_path):
    tree = make_tree(tmp_path)
    before = analyse(tree)
    assert not any(finding.rule == "snapshot-coverage" for finding in before.findings)

    (tree / "streaming" / "steady.py").write_text(PHANTOM)
    after = analyse(tree)
    assert any(
        finding.rule == "snapshot-coverage" and "phantom" in finding.message
        for finding in after.findings
    ), rendered(after)


def test_two_runs_over_one_tree_give_one_report(tmp_path):
    tree = make_tree(tmp_path)
    first, second = analyse(tree).to_dict(), analyse(tree).to_dict()
    for payload in (first, second):
        del payload["duration_seconds"]
    assert first == second
    assert first["finding_count"] > 0


def test_a_rule_subset_runs_and_reports_only_those_rules(tmp_path):
    tree = make_tree(tmp_path)
    (tree / "streaming" / "steady.py").write_text(PHANTOM)
    full = analyse(tree)
    assert {finding.rule for finding in full.findings} == {"set-iteration", "snapshot-coverage"}

    subset = [rule_class() for rule_class in ALL_RULES if rule_class.id == "set-iteration"]
    report = analyse(tree, rules=subset)
    assert report.rules_run == ["set-iteration"]
    assert rendered(report) == [
        finding.format() for finding in full.findings if finding.rule == "set-iteration"
    ]


# ----------------------------------------------------------------------
# a run writes nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entry", ["api", "cli"])
def test_a_run_writes_no_file(tmp_path, monkeypatch, entry):
    tree = make_tree(tmp_path)
    before = listing(tmp_path)
    if entry == "api":
        monkeypatch.chdir(tmp_path)
        assert not analyse(tree).clean
    else:
        result = run_cli(str(tree), "--format", "json", cwd=tmp_path)
        assert result.returncode == 1, result.stderr
    assert listing(tmp_path) == before


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "option",
    [["--no-cache"], ["--cache-path", "cache.json"], ["--changed-only"]],
    ids=["no-cache", "cache-path", "changed-only"],
)
def test_the_removed_cache_options_are_usage_errors(tmp_path, option):
    tree = make_tree(tmp_path)
    result = run_cli(str(tree), *option, cwd=tmp_path)
    assert result.returncode == 2
    assert "unrecognized arguments" in result.stderr
    assert not (tmp_path / "cache.json").exists()


@pytest.mark.parametrize("problem", ["syntax-error", "missing-path"])
def test_an_unparsable_file_or_missing_path_is_a_usage_error(tmp_path, problem):
    tree = make_tree(tmp_path)
    if problem == "syntax-error":
        (tree / "streaming" / "broken.py").write_text("def broken(:\n")
        target, expected = tree, "broken.py: cannot parse"
    else:
        target, expected = tree / "absent.py", "no such file or directory"
    with pytest.raises(AnalysisError, match=expected):
        analyse(target)
    result = run_cli(str(target))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("repro-lint: error: ")
    assert expected in result.stderr


def test_cli_json_report_carries_exactly_its_fields(tmp_path):
    tree = make_tree(tmp_path)
    result = run_cli(str(tree), "--format", "json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert set(payload) == {
        "clean",
        "files_analyzed",
        "rules_run",
        "duration_seconds",
        "finding_count",
        "findings",
    }
    assert payload["files_analyzed"] == 2
    assert payload["rules_run"] == [rule.id for rule in ALL_RULES]
    assert payload["finding_count"] == len(payload["findings"]) > 0
    assert {finding["rule"] for finding in payload["findings"]} == {"set-iteration"}


def test_cli_human_summary_counts_every_file_and_rule(tmp_path):
    tree = make_tree(tmp_path)
    result = run_cli(str(tree))
    assert result.returncode == 1
    summary = result.stdout.splitlines()[-1]
    prefix = f"repro-lint: {summary.split()[1]} finding(s) -- 2 files, {len(ALL_RULES)} rules, "
    assert summary.startswith(prefix), summary
    (tree / "streaming" / "flaky.py").write_text(GOOD)
    clean = run_cli(str(tree))
    assert clean.returncode == 0
    assert clean.stdout.startswith(f"repro-lint: clean -- 2 files, {len(ALL_RULES)} rules, ")


def test_list_rules_prints_the_eight_rules_one_per_line():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    ids = [line.split(":", 1)[0] for line in result.stdout.splitlines()]
    assert ids == [rule.id for rule in ALL_RULES]
    assert len(set(ids)) == len(ids) == 8
    assert "config-drift" not in ids
