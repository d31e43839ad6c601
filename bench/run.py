"""StreamWorks benchmark: one command, four workloads, end to end and per layer.

    python3 bench/run.py                        # everything, both trace modes
    python3 bench/run.py --workload drift_join --seed 12 --seconds 12 --trace 0

With ``--trace`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.  Without it both sets are measured and printed, and
everything is written to ``bench/out/result.json``.  ``bench/README.md`` has
the workloads, the metric definitions and the other flags.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))

import passes  # noqa: E402 - needs src/ on the path first
from workloads import WORKLOADS, Workload, sized_record_count  # noqa: E402

DEFAULT_SEED = 11
SMOKE_SECONDS = 0.2
#: ``EngineConfig`` fields ``--ablate`` may flip, one at a time.
ABLATABLE = (
    "columnar",
    "sketch_dispatch",
    "dedup_memory_budget",
    "use_dispatch_index",
    "track_triads",
    "collect_statistics",
    "replan_threshold",
)


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def _spread(values: Sequence[float]) -> Optional[List[float]]:
    """First and third quartile of a run-set (``None`` below three runs)."""
    if len(values) < 3:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return [quartiles[0], quartiles[2]]


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    want_e2e: bool,
    want_layers: bool,
    repeats: int = 1,
    extra_cut: Optional[int] = None,
    setup_cycles: int = passes.SETUP_CYCLES,
    expected: Optional[Dict[str, Dict[str, str]]] = None,
) -> Dict[str, Any]:
    """Generate, run every pass in its own child, check, and collect values."""
    record_count = sized_record_count(workload, seconds)
    started = perf_counter()
    generated = workload.generate(seed, record_count)
    generate_s = perf_counter() - started
    batch_count = -(-record_count // workload.batch_size)
    open_cut = passes.open_prefix_batches(batch_count) * workload.batch_size
    cuts = [open_cut] + ([extra_cut] if extra_cut else [])

    problems: List[str] = []
    attempted = 0
    failed = 0

    def child(function, *args) -> Dict[str, Any]:
        nonlocal attempted, failed
        result = passes.in_child(function, *args)
        if "error" in result:
            problems.append(f"{function.__name__} raised:\n{result['error']}")
            return {}
        attempted += result.get("offered", 0)
        failed += result.get("failed", 0)
        if result.get("first_error"):
            problems.append(f"{function.__name__}: a call raised:\n{result['first_error']}")
        return result

    closed_runs = [child(passes.closed_pass, workload, generated, cuts) for _ in range(repeats)]
    open_runs = [child(passes.open_pass, workload, generated) for _ in range(repeats)]
    closed_runs = [run for run in closed_runs if run]
    open_runs = [run for run in open_runs if run]
    closed = closed_runs[0] if closed_runs else {}
    setup = child(passes.setup_pass, workload, generated, setup_cycles) if want_e2e else {}
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = child(passes.traced_pass, workload, generated, OUT_DIR) if want_layers else {}
    reference = (
        child(passes.reference_pass, workload, generated)
        if generated.reference is not None
        else {}
    )
    sharded = (
        child(passes.sharded_probe, workload, generated)
        if want_layers and workload.name == "multiquery_banded"
        else {}
    )

    digest = closed.get("digest")
    checks: Dict[str, bool] = {"passes_ran": not problems and bool(closed and open_runs)}
    if closed:
        checks["closed_repeats_agree"] = all(run["digest"] == digest for run in closed_runs)
        checks["open_equals_closed_prefix"] = all(
            run["digest"] == closed["cut_digests"][str(open_cut)] for run in open_runs
        )
        checks["planted_all_detected"] = closed["planted_missing"] == 0
        checks["stragglers_all_dropped"] = closed["late_dropped"] == generated.stragglers
        if traced:
            checks["traced_equals_closed"] = traced["digest"] == digest
            checks["restore_keeps_events"] = traced["restored_events"] == traced["events"]
        if reference:
            checks["reorder_repairs_disorder"] = reference["digest"] == digest
        if sharded:
            checks["sharded_equals_single"] = bool(sharded["digest_equal"])
        frozen = (expected or {}).get(workload.name, {}).get(f"{seed}:{record_count}")
        if frozen is not None:
            checks["matches_expected_json"] = frozen == digest
    correct = all(checks.values())
    if not correct:
        failed = attempted  # a wrong answer fails every record of the workload

    values: Dict[str, float] = {}
    spreads: Dict[str, List[float]] = {}
    if closed and open_runs:
        for name, runs in (
            ("throughput_rps", closed_runs),
            ("peak_rss_mb", closed_runs),
            ("detect_p50_ms", open_runs),
        ):
            samples = [run[name] for run in runs]
            values[name] = statistics.median(samples)
            spread = _spread(samples)
            if spread:
                spreads[name] = spread
    if setup:
        values["setup_s"] = setup["setup_s"]
    if traced and closed and open_runs:
        values.update(traced["layers"])
        values.update(
            {
                "engine.cpu_s": statistics.median([run["cpu_s"] for run in closed_runs]),
                "engine.batch_p50_ms": statistics.median([run["batch_p50_ms"] for run in closed_runs]),
                "engine.batch_p99_ms": statistics.median([run["batch_p99_ms"] for run in closed_runs]),
                "trace.overhead_ratio": traced["calibrated_busy_s"]
                / statistics.median([run["calibrated_busy_s"] for run in closed_runs]),
                "engine.rss_growth_mb": statistics.median(
                    [run["peak_rss_mb"] - run["rss_at_fork_mb"] for run in closed_runs]
                ),
                "detect_p95_ms": statistics.median([run["detect_p95_ms"] for run in open_runs]),
                "loadgen.detect_samples": open_runs[0]["detect_samples"],
                "loadgen.generate_s": generate_s,
                "loadgen.lag_p99_ms": statistics.median([run["lag_p99_ms"] for run in open_runs]),
                "loadgen.backlog_end_batches": statistics.median(
                    [run["backlog_end_batches"] for run in open_runs]
                ),
                "loadgen.calibration_ms": statistics.median(
                    [run["calibration_ms"] for run in closed_runs + open_runs]
                ),
                "loadgen.slowdown": statistics.median(
                    [run["slowdown"] for run in closed_runs + open_runs]
                ),
            }
        )
        # measured on multiquery_banded only; the layer does not run elsewhere
        values.update(sharded["layers"] if sharded else passes.SHARDED_IDLE)
    open_first = open_runs[0] if open_runs else {}
    return {
        "records": record_count,
        "events": closed.get("events", 0),
        "events_per_record": closed.get("events", 0) / record_count,
        "planted": closed.get("planted", 0),
        "stragglers": generated.stragglers,
        "digest": digest,
        "cut_digests": closed.get("cut_digests", {}),
        "correct": correct,
        "checks": checks,
        "problems": problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "values": values,
        "spreads": spreads,
        "repeats": repeats,
        "detect_samples": open_first.get("detect_samples", 0),
        "open_utilisation": open_first.get("utilisation", 0.0),
        # a growing backlog means the latency numbers describe the backlog
        "latency_resolved": open_first.get("backlog_end_batches", 0.0) < 2.0,
        "layer_self_share": traced.get("layer_self_share", {}),
    }


def load_expected(path: str) -> Dict[str, Dict[str, str]]:
    """``{workload: {"seed:records": digest}}`` (empty when the file is absent)."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def freeze(results: Dict[str, Dict[str, Any]], seed: int, path: str) -> None:
    """Record this run's digests as the expectation for its seed and size."""
    expected = load_expected(path)
    for name, result in results.items():
        if result["digest"] is not None:
            expected.setdefault(name, {})[f"{seed}:{result['records']}"] = result["digest"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def metric_entries(
    result: Dict[str, Any], specs: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"[, "q1", "q3"]}}`` for the named metric specs."""
    entries: Dict[str, Dict[str, Any]] = {}
    for spec in specs:
        entry: Dict[str, Any] = {"value": result["values"][spec["name"]], "unit": spec["unit"]}
        spread = result["spreads"].get(spec["name"])
        if spread:
            entry["q1"], entry["q3"] = spread
        entries[spec["name"]] = entry
    return entries


def print_workload(name: str, result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the checks."""
    print(f"== {name}: {result['records']} records, {result['events']} events "
          f"({result['events_per_record']:.3f}/record), {result['planted']} planted, "
          f"{result['stragglers']} stragglers")
    for spec in contract["end_to_end"] + contract["per_layer"]:
        if spec["name"] not in result["values"]:
            continue
        value = result["values"][spec["name"]]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = ""
        if spec["name"].startswith("detect_"):
            note = f"  ({result['detect_samples']} samples"
            note += ")" if result["latency_resolved"] else "; UNRESOLVED: backlog grew)"
        print(f"  {spec['name']:<34} {shown:>14} {spec['unit']}{note}")
    if result["layer_self_share"]:
        shares = ", ".join(
            f"{layer} {share:.1%}" for layer, share in result["layer_self_share"].items()
        )
        print(f"  self-time share of engine.batch_s: {shares}")
    print(f"  open-pass utilisation {result['open_utilisation']:.1%}; "
          f"failed {result['failed']} of {result['attempted']} records")
    for check, passed in result["checks"].items():
        print(f"  check {check:<28} {'ok' if passed else 'FAILED'}")
    for problem in result["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def result_document(
    results: Dict[str, Dict[str, Any]], contract: Dict[str, Any], seed: int, seconds: float
) -> Dict[str, Any]:
    """The one JSON result: commit, python, nproc, seed, scale, workloads -> metrics."""
    specs = contract["end_to_end"] + contract["per_layer"]
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": {"seconds": seconds},
        "workloads": {
            name: {
                "records": result["records"],
                "events": result["events"],
                "digest": result["digest"],
                "correct": result["correct"],
                "checks": result["checks"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failed_share": result["failed"] / result["attempted"],
                "repeats": result["repeats"],
                "latency_resolved": result["latency_resolved"],
                "layer_self_share": result["layer_self_share"],
                "metrics": metric_entries(
                    result, [spec for spec in specs if spec["name"] in result["values"]]
                ),
            }
            for name, result in results.items()
        },
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(old: Dict[str, Any], new: Dict[str, Any], contract: Dict[str, Any]) -> bool:
    """Print old, new, ratio and a verdict per workload x metric; False on regression."""
    bounds = {spec["name"]: spec for spec in contract["end_to_end"]}
    counts = {spec["name"] for spec in contract["per_layer"] if spec["unit"] == "count"}
    regressed = False
    for name, new_workload in new["workloads"].items():
        old_workload = old["workloads"].get(name)
        if old_workload is None:
            continue
        print(f"== {name}")
        for metric, spec in bounds.items():
            old_entry = old_workload["metrics"].get(metric)
            new_entry = new_workload["metrics"].get(metric)
            if not old_entry or not new_entry:
                continue
            base, value = old_entry["value"], new_entry["value"]
            ratio = value / base if base else float("inf")
            worse = (base - value if spec["better"] == "higher" else value - base) / base
            wide = [
                entry
                for entry in (old_entry, new_entry)
                if "q1" in entry and (entry["q3"] - entry["q1"]) / entry["value"] > spec["bound"]
            ]
            if metric.startswith("detect_") and not (
                old_workload.get("latency_resolved", True)
                and new_workload.get("latency_resolved", True)
            ):
                verdict = "unresolved"
            elif len(wide) == 2:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
                regressed = True
            elif -worse > spec["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"  {metric:<16} old {base:>12.6g}  new {value:>12.6g} {spec['unit']:<9} "
                  f"new/old {ratio:.3f} (base {base:.6g})  {verdict}")
        differing = [
            metric
            for metric in sorted(counts)
            if metric in old_workload["metrics"]
            and metric in new_workload["metrics"]
            and old_workload["metrics"][metric]["value"] != new_workload["metrics"][metric]["value"]
        ]
        compared = sum(
            1 for m in counts if m in old_workload["metrics"] and m in new_workload["metrics"]
        )
        print(f"  count metrics: {compared - len(differing)} of {compared} identical"
              + (f"; differing: {', '.join(differing)}" if differing else ""))
        if old_workload.get("failed", 0) < new_workload.get("failed", 0):
            print("  failed records rose: regressed")
            regressed = True
    return not regressed


# ----------------------------------------------------------------------
# --ablate
# ----------------------------------------------------------------------
def _ablate_workload(
    workload: Workload, settings: List[Any], seed: int, seconds: float, repeats: int
) -> Dict[str, Any]:
    """Median closed-pass numbers per setting; the first setting is the default."""
    generated = workload.generate(seed, sized_record_count(workload, seconds))
    rows = []
    for overrides in settings:
        runs = [
            passes.in_child(passes.closed_pass, workload, generated, (), overrides)
            for _ in range(repeats)
        ]
        errors = [run["error"] for run in runs if "error" in run]
        if errors:
            rows.append({"error": errors[0].strip().splitlines()[-1]})
            continue
        rows.append(
            {
                "throughput_rps": statistics.median([run["throughput_rps"] for run in runs]),
                "peak_rss_mb": statistics.median([run["peak_rss_mb"] for run in runs]),
                "digest": runs[0]["digest"],
            }
        )
    return {"rows": rows}


def ablate(
    workloads: List[Workload], settings: List[str], seed: int, seconds: float, repeats: int
) -> bool:
    """Closed pass per workload with exactly one ``EngineConfig`` field flipped."""
    parsed: List[Any] = [None]
    labels = ["(default)"]
    for setting in settings:
        field, _, raw = setting.partition("=")
        if field not in ABLATABLE or not raw:
            raise SystemExit(f"--ablate takes FIELD=VALUE with FIELD in {ABLATABLE}")
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides = {field: value}
        if field == "replan_threshold" and value is None:
            overrides["replan_check_every"] = None  # a cadence needs its trigger
        parsed.append(overrides)
        labels.append(f"{field}={value!r}")
    agree = True
    print(f"{'workload':<24} {'setting':<28} {'records/s':>10} {'x base':>7} "
          f"{'MiB':>7} {'x base':>7}  digest")
    for workload in workloads:
        result = passes.in_child(_ablate_workload, workload, parsed, seed, seconds, repeats)
        if "error" in result or "error" in result["rows"][0]:
            raise SystemExit(f"{workload.name} baseline failed:\n{result}")
        base = result["rows"][0]
        for label, row in zip(labels, result["rows"]):
            if "error" in row:
                print(f"{workload.name:<24} {label:<28} not applicable: {row['error']}")
                continue
            same = row["digest"] == base["digest"]
            agree = agree and same
            print(f"{workload.name:<24} {label:<28} {row['throughput_rps']:>10.0f} "
                  f"{row['throughput_rps'] / base['throughput_rps']:>7.3f} "
                  f"{row['peak_rss_mb']:>7.1f} {row['peak_rss_mb'] / base['peak_rss_mb']:>7.3f}"
                  f"  {'base' if row is base else 'equal' if same else 'DIFFERS'}")
    return agree


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="how long one run measures; sizes the streams from frozen rates")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--repeats", type=int, default=1,
                        help="run the closed and open passes N times; report median and quartiles "
                             "(with --ablate: median of N closed passes per setting)")
    parser.add_argument("--smoke", action="store_true", help=f"--seconds {SMOKE_SECONDS}")
    parser.add_argument("--json", default=os.path.join(OUT_DIR, "result.json"),
                        help="where to write the result document")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="compare this run against an earlier result document")
    parser.add_argument("--freeze", action="store_true",
                        help="record this run's digests in the expectations file")
    parser.add_argument("--expected", default=EXPECTED_PATH, metavar="PATH",
                        help="frozen digests to check against (default bench/expected.json)")
    parser.add_argument("--ablate", action="append", metavar="FIELD=VALUE",
                        help="closed pass only, one EngineConfig field flipped (repeatable)")
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if seconds <= 0 or args.repeats < 1:
        parser.error("--seconds must be positive and --repeats at least 1")
    chosen = [WORKLOADS[name] for name in (args.workload or list(WORKLOADS))]
    if args.trace is not None and len(chosen) != 1:
        parser.error("--trace reports one workload: give exactly one --workload")

    if args.ablate:
        return 0 if ablate(chosen, args.ablate, args.seed, seconds, args.repeats) else 1

    want_e2e = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)
    results: Dict[str, Dict[str, Any]] = {}
    expected = load_expected(args.expected)
    for workload in chosen:
        # disordered_multisource re-delivers the first N4 records of the
        # banded stream: ask the banded run for its digest at that point
        extra_cut = None
        if workload.name == "multiquery_banded":
            extra_cut = sized_record_count(WORKLOADS["disordered_multisource"], seconds)
        # a child per workload: its passes fork from a process that holds this
        # workload's records and nothing left over from the previous one
        results[workload.name] = passes.in_child(
            run_workload, workload, args.seed, seconds, want_e2e, want_layers, args.repeats,
            extra_cut, 4 * passes.SETUP_DISCARD if args.smoke else passes.SETUP_CYCLES, expected,
        )
        if "error" in results[workload.name]:
            raise SystemExit(f"{workload.name} could not run:\n{results[workload.name]['error']}")
    banded = results.get("multiquery_banded")
    disordered = results.get("disordered_multisource")
    if banded and disordered and banded["digest"] and disordered["digest"]:
        at_cut = banded["cut_digests"].get(str(disordered["records"]))
        if at_cut is not None:
            same = at_cut == disordered["digest"]
            disordered["checks"]["equals_banded_prefix"] = same
            if not same:
                disordered["correct"] = False
                disordered["failed"] = disordered["attempted"]

    for name, result in results.items():
        print_workload(name, result, contract)
    document = result_document(results, contract, args.seed, seconds)
    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"result written to {os.path.relpath(args.json)}")
    ok = all(result["correct"] and result["failed"] == 0 for result in results.values())
    if args.freeze:
        if not ok:
            print("not freezing: a check failed", file=sys.stderr)
        else:
            freeze(results, args.seed, args.expected)
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            ok = compare(json.load(handle), document, contract) and ok

    if args.trace is not None:
        specs = contract["end_to_end"] if args.trace == 0 else contract["per_layer"]
        (result,) = results.values()
        summary = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metric_entries(result, specs).items()
            },
        }
        print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
