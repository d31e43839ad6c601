"""Tier-1 tests for repro-lint (`repro.analysis`).

Four layers, mirroring the guarantees the suite makes:

1. **Fixture pairs** -- every rule fires on its bad fixture and stays
   silent on its good twin (`tests/fixtures/analysis/`).
2. **Suppression machinery** -- a line-scoped ignore silences exactly its
   finding; stale or unknown ignores are `unused-suppression` errors.
3. **The real tree** -- `run_analysis(["src/repro"])` is clean (this is
   the same gate CI runs) and fast (<10s, so the lint suite stays
   tier-1-cheap), and no module imports `threading` or `multiprocessing`.
4. **Mutation meta-tests** -- deleting a `state_dict` key from
   `ReorderBuffer`, or adding an unpersisted `__init__` attribute, makes
   the suite fail.  This pins that the snapshot rule actually guards the
   exact-resume contract rather than merely passing on today's code.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, run_analysis
from repro.analysis.core import SourceFile

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"

RULE_FIXTURES = {
    "set-iteration": "repro/streaming/set_iteration",
    "id-hash-key": "repro/streaming/id_hash_key",
    "unseeded-random": "repro/streaming/unseeded_random",
    "wall-clock": "repro/streaming/wall_clock",
    "snapshot-coverage": "repro/streaming/snapshot",
    "optional-truthiness": "repro/streaming/truthiness",
    "exception-atomicity": "repro/streaming/atomicity",
}


def analyse(path, root=None):
    return run_analysis([str(path)], root=root)


# ----------------------------------------------------------------------
# 1. fixture pairs
# ----------------------------------------------------------------------
def test_every_registered_rule_has_a_fixture_pair_or_dedicated_test():
    covered = set(RULE_FIXTURES) | {"metrics-docs"}
    assert {rule.id for rule in ALL_RULES} == covered


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_fires_on_bad_fixture(rule_id):
    report = analyse(FIXTURES / f"{RULE_FIXTURES[rule_id]}_bad.py")
    assert not report.clean
    assert {finding.rule for finding in report.findings} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_is_silent_on_good_fixture(rule_id):
    report = analyse(FIXTURES / f"{RULE_FIXTURES[rule_id]}_good.py")
    assert report.clean, [finding.format() for finding in report.findings]


def test_metrics_docs_rule_fires_and_clears_against_synthetic_docs(tmp_path):
    fixture = FIXTURES / "repro" / "streaming" / "metrics_docs.py"
    docs = tmp_path / "docs"
    docs.mkdir()

    (docs / "operations.md").write_text("Only `rate` is documented.\n")
    report = analyse(fixture, root=tmp_path)
    assert [finding.rule for finding in report.findings] == ["metrics-docs"]
    assert "undocumented_rate_window" in report.findings[0].message

    (docs / "operations.md").write_text(
        "Both `rate` and `undocumented_rate_window` are documented.\n"
    )
    assert analyse(fixture, root=tmp_path).clean


def test_metrics_docs_rule_accepts_keys_inside_longer_code_spans(tmp_path):
    fixture = FIXTURES / "repro" / "streaming" / "metrics_docs.py"
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "operations.md").write_text(
        'See `stats()["rate"]` and `metrics()["undocumented_rate_window"]`.\n'
    )
    assert analyse(fixture, root=tmp_path).clean


# ----------------------------------------------------------------------
# 2. suppression machinery
# ----------------------------------------------------------------------
def test_matching_suppression_silences_the_finding():
    assert analyse(FIXTURES / "repro" / "streaming" / "suppressed_ok.py").clean


def test_stale_and_unknown_suppressions_are_errors():
    report = analyse(FIXTURES / "repro" / "streaming" / "unused_suppression.py")
    assert [finding.rule for finding in report.findings] == [
        "unused-suppression",
        "unused-suppression",
    ]
    messages = "\n".join(finding.message for finding in report.findings)
    assert "matches no finding" in messages
    assert "unknown rule 'not-a-rule'" in messages


@pytest.mark.parametrize("rule_id", ["fork-safety", "lock-discipline", "lock-order"])
def test_suppression_naming_a_removed_rule_is_an_error(rule_id):
    """The thread and process rules were deleted with the code they policed;
    an ignore left behind for one is reported, not silently kept."""
    text = f"def f(shards):\n    shards.append(1)  # repro-lint: ignore[{rule_id}]\n"
    source = SourceFile(Path("repro/core/stale.py"), "repro/core/stale.py", text)
    report = run_analysis([], sources=[source])
    assert [finding.rule for finding in report.findings] == ["unused-suppression"]
    assert f"unknown rule {rule_id!r}" in report.findings[0].message


def test_suppression_marker_inside_a_docstring_is_inert():
    source = SourceFile(
        Path("repro/streaming/doc.py"),
        "repro/streaming/doc.py",
        '"""Suppress with `# repro-lint: ignore[set-iteration]`."""\n',
    )
    assert source.suppressions == {}


def test_one_comment_can_suppress_several_rules():
    text = (
        "import random\n"
        "def f():\n"
        "    for x in {1, 2}:  # repro-lint: ignore[set-iteration,unseeded-random]\n"
        "        random.random()\n"
    )
    source = SourceFile(Path("repro/streaming/multi.py"), "repro/streaming/multi.py", text)
    assert source.suppressions == {3: {"set-iteration", "unseeded-random"}}
    # the random.random() call is on line 4, not the suppressed line 3,
    # so only set-iteration is consumed; the other ignore goes stale
    report = run_analysis([], sources=[source])
    assert {finding.rule for finding in report.findings} == {
        "unseeded-random",
        "unused-suppression",
    }


# ----------------------------------------------------------------------
# 3. the real tree
# ----------------------------------------------------------------------
def test_the_real_tree_is_clean_and_fast():
    report = run_analysis([str(REPO_ROOT / "src" / "repro")])
    assert report.clean, "\n".join(finding.format() for finding in report.findings)
    assert len(report.rules_run) >= 5
    assert report.duration_seconds < 10.0


@pytest.mark.parametrize("module", ["threading", "multiprocessing"])
def test_the_real_tree_runs_on_one_thread_in_one_process(module):
    """No module under ``src/repro`` imports a thread or process API."""
    importers = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == module or name.startswith(f"{module}.") for name in names):
                importers.append(str(path.relative_to(REPO_ROOT)))
    assert importers == []


def test_cli_reports_clean_json_on_the_real_tree():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro", "--format", "json"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["clean"] is True
    assert payload["finding_count"] == 0
    assert len(payload["rules_run"]) == len(ALL_RULES)
    # one full pass: every module under the tree is parsed
    assert payload["files_analyzed"] == len(list((REPO_ROOT / "src" / "repro").rglob("*.py")))


def test_cli_exits_one_on_findings_and_lists_rules():
    bad = FIXTURES / "repro" / "streaming" / "set_iteration_bad.py"
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(bad)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert "[set-iteration]" in result.stdout

    listing = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert listing.returncode == 0
    for rule in ALL_RULES:
        assert f"{rule.id}:" in listing.stdout


# ----------------------------------------------------------------------
# 4. mutation meta-tests: the rules guard the live tree, not just today's
#    shape of it -- reintroducing a fixed bug must fail the suite
# ----------------------------------------------------------------------
REORDER_PATH = REPO_ROOT / "src" / "repro" / "streaming" / "reorder.py"


def _analyse_mutated(relative_path, mutate):
    path = REPO_ROOT / relative_path
    text = path.read_text()
    mutated = mutate(text)
    assert mutated != text, f"mutation did not apply -- {relative_path} changed shape?"
    source = SourceFile(Path(relative_path), relative_path, mutated)
    return run_analysis([], sources=[source])


def _analyse_mutated_reorder(mutate):
    return _analyse_mutated("src/repro/streaming/reorder.py", mutate)


def _drop_buffer_state_key(text, key):
    """Delete ``key``'s line from ``ReorderBuffer.state_dict`` (the file's last)."""
    head, marker, tail = text.rpartition("    def state_dict(")
    return head + marker + re.sub(rf'\n *"{key}": self\.\w+,', "", tail, count=1)


def test_deleting_a_state_dict_key_from_reorder_buffer_fails_the_suite():
    """Each per-source payload repeats four of the buffer's own keys; it is
    written by the source's own ``state_dict``, so dropping the buffer's
    key is still reported."""
    for key in ("records_seen", "records_reordered", "max_seen", "max_displacement_seen"):
        report = _analyse_mutated_reorder(lambda text: _drop_buffer_state_key(text, key))
        findings = [f for f in report.findings if f.rule == "snapshot-coverage"]
        assert findings, f"dropping the captured key {key!r} must raise snapshot-coverage"
        assert any(key in f.message for f in findings)


def test_adding_an_unpersisted_init_attribute_to_reorder_buffer_fails_the_suite():
    report = _analyse_mutated_reorder(
        lambda text: text.replace(
            "self.records_seen = 0",
            "self.records_seen = 0\n        self.phantom_counter = 0",
        )
    )
    findings = [f for f in report.findings if f.rule == "snapshot-coverage"]
    assert findings, "an unpersisted __init__ attribute must raise snapshot-coverage"
    assert any("phantom_counter" in f.message for f in findings)


def test_unsuppressing_a_derived_sjtree_counter_fails_the_suite():
    """``_match_count`` is rebuilt on restore, not captured, and says so with
    a snapshot-coverage ignore; deleting that ignore resurfaces the finding,
    so the suppression is load-bearing, not decoration."""
    report = _analyse_mutated(
        "src/repro/core/sjtree.py",
        lambda text: text.replace(
            "self._match_count = 0  # repro-lint: ignore[snapshot-coverage]",
            "self._match_count = 0",
        ),
    )
    findings = [f for f in report.findings if f.rule == "snapshot-coverage"]
    assert findings, "the uncaptured counter must raise snapshot-coverage once unsuppressed"
    assert any("_match_count" in f.message for f in findings)


def test_raising_between_persisted_writes_fails_the_suite():
    """Inserting a validation raise between the two persisted writes that
    empty the buffer in ``flush`` opens a torn-checkpoint window the
    exception-atomicity rule must report."""
    report = _analyse_mutated_reorder(
        lambda text: text.replace(
            "        self._pending = []\n        self._min_pending",
            "        self._pending = []\n"
            "        if remainder and remainder[0].timestamp < 0:\n"
            '            raise ValueError("negative timestamp")\n'
            "        self._min_pending",
        )
    )
    findings = [f for f in report.findings if f.rule == "exception-atomicity"]
    assert findings, "a raise between persisted writes must raise exception-atomicity"
    assert any("_pending" in f.message for f in findings)
