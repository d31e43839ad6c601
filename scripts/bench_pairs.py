#!/usr/bin/env python
"""Alternating parent/change benchmark pairs, summarised per end-to-end metric.

A speed or memory claim is judged on pairs of runs, not on one run each: the
machine's load drifts, so the two sides take turns.  This script exports two
fresh copies with ``git archive`` -- a named parent revision, and the working
tree as ``git add -A`` would commit it (tracked edits and untracked files that
``.gitignore`` does not exclude) -- and runs, ``--pairs`` times, ::

    python3 bench/run.py --workload W --trace 0 --seed S --seconds T

once in each copy.  The side that goes first alternates from pair to pair.
Every run is printed as it finishes; then, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, how many pairs the
change won, and a verdict:

``better``
    the change won at least 9 in 10 pairs and the gap between the medians
    exceeds the parent's interquartile range;
``worse``
    the change's median is worse than the parent's by more than the metric's
    bound (a share of the parent's median);
``unresolved``
    either side's interquartile range is wider than the bound: the runs
    spread too widely to tell -- unless every run of the change reads better
    than every run of the parent;
``same``
    none of the above.

Both copies are deleted at the end, and every run is waited for, so no
process is left running.  Run from the repository root::

    python3 scripts/bench_pairs.py --parent HEAD --workload drift_join --pairs 10 --seed 11
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A claimed gain must win at least this share of the pairs.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` by linear interpolation (``statistics`` "inclusive")."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """Judge one metric over pairs: ``parent[i]`` and ``change[i]`` ran as pair ``i``.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the largest move,
    as a share of the parent's median, that is not yet a regression.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("one value per side per pair, and at least one pair")
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    wins = sum(1 for old, new in zip(parent, change) if sign * (new - old) > 0)
    gain = sign * (c_med - p_med)
    scale = abs(p_med)
    wide = bool(scale) and ((p3 - p1) / scale > bound or (c3 - c1) / abs(c_med or p_med) > bound)
    apart = min(sign * new for new in change) > max(sign * old for old in parent)
    if wide and not apart:
        verdict = "unresolved"
    elif wins >= math.ceil(WIN_SHARE * len(parent)) and gain > p3 - p1:
        verdict = "better"
    elif -gain > bound * scale:
        verdict = "worse"
    else:
        verdict = "same"
    return {
        "parent": [p1, p_med, p3],
        "change": [c1, c_med, c3],
        "ratio": c_med / p_med if p_med else None,
        "wins": wins,
        "pairs": len(parent),
        "verdict": verdict,
    }


def summarise_runs(
    runs: Mapping[str, Sequence[Mapping[str, Any]]], specs: Sequence[Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """:func:`summarise` per end-to-end metric every run reports.

    ``runs`` maps ``"parent"`` and ``"change"`` to their runs in pair order,
    each the summary line ``bench/run.py --trace 0`` prints; ``specs`` is
    ``BENCHMARK.json``'s ``end_to_end`` list.
    """
    summary: Dict[str, Dict[str, Any]] = {}
    for spec in specs:
        name = spec["name"]
        if not all(name in result["metrics"] for results in runs.values() for result in results):
            continue
        parent, change = (
            [result["metrics"][name]["value"] for result in runs[side]]
            for side in ("parent", "change")
        )
        summary[name] = summarise(parent, change, spec["better"], spec["bound"])
    return summary


def export(revision: Optional[str], destination: str) -> None:
    """``git archive`` ``revision`` (``None``: the working tree) into ``destination``."""
    os.makedirs(destination)
    env = None
    tree = revision
    index = None
    if revision is None:
        # a scratch index: the working tree as `git add -A` would stage it,
        # leaving the real index untouched
        handle, index = tempfile.mkstemp(prefix="bench-pairs-index-")
        os.close(handle)
        os.unlink(index)
        env = dict(os.environ, GIT_INDEX_FILE=index)
        subprocess.run(["git", "add", "-A"], cwd=REPO_ROOT, env=env, check=True)
        tree = subprocess.run(
            ["git", "write-tree"], cwd=REPO_ROOT, env=env, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    try:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", tree], cwd=REPO_ROOT, check=True,
            capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", destination], input=archive, check=True)
    finally:
        if index is not None and os.path.exists(index):
            os.unlink(index)


def run_once(copy: str, workload: str, seed: Optional[int], seconds: Optional[float]) -> Dict[str, Any]:
    """One ``bench/run.py --trace 0`` run in ``copy``; its summary line, parsed."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--trace", "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench/run.py printed nothing (exit {done.returncode}):\n{done.stderr}")
    summary: Dict[str, Any] = json.loads(lines[-1])
    summary["exit"] = done.returncode
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", metavar="PATH", help="also write every run and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        specs = json.load(handle)["end_to_end"]

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    try:
        copies = {"parent": os.path.join(scratch, "parent"), "change": os.path.join(scratch, "change")}
        export(args.parent, copies["parent"])
        export(None, copies["change"])
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(copies[side], args.workload, args.seed, args.seconds)
                runs[side].append(result)
                shown = "  ".join(
                    f"{spec['name']}={result['metrics'][spec['name']]['value']:.6g}"
                    for spec in specs
                    if spec["name"] in result["metrics"]
                )
                print(f"pair {pair + 1:>2} {side:<6} failed={result['failed']} {shown}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"args": vars(args), "runs": runs}, handle, indent=2)
            handle.write("\n")
    print(f"== {args.workload}: {args.pairs} pairs, parent {args.parent} vs working tree")
    for name, judged in summarise_runs(runs, specs).items():
        p1, p_med, p3 = judged["parent"]
        c1, c_med, c3 = judged["change"]
        ratio = "" if judged["ratio"] is None else f" x{judged['ratio']:.3f}"
        print(
            f"  {name:<16} parent {p_med:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {c_med:.6g} [{c1:.6g}, {c3:.6g}]{ratio}  "
            f"won {judged['wins']}/{judged['pairs']}  {judged['verdict']}"
        )
    failed = {side: sum(result["failed"] for result in results) for side, results in runs.items()}
    print(f"  failed operations: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
