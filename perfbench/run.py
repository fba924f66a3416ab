"""Scenario benchmark: timed `chainbook experiment` invocations, validated.

Run from the root of a chainbook checkout:

    python3 perfbench/run.py --workload compare_large --seed 1 --seconds 36 --trace 0

Closed loop, one client: invocations run one after another, each in a fresh
single-threaded interpreter (``--threads 1``) that imports chainbook from
``src/``, until the next one would end past ``--seconds``.  Every report
is validated and must be byte-identical to the first of the run.  With
``--trace 0`` the last stdout line carries the end-to-end metrics (medians
over the invocations); with ``--trace 1`` traced and untraced invocations
alternate and it carries the per-layer metrics of the traced ones.  Scratch
files go to ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, summarize
from validate import validate_report
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT_DIR = ".perfbench_run"
DEADLINE_S = 170.0  # the whole benchmark must exit within 180 s

END_TO_END = {
    "run_s": "s",
    "plays_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "miners.selfish_select.self_s": "s",
    "miners.selfish_select.calls": "count",
    "miners.select_fill_ratio": "ratio",
    "miners.select_empty_share": "share",
    "miners.run_round.self_s": "s",
    "miners.run_round.calls": "count",
    "miners.rounds_per_horizon": "ratio",
    "miners.run_horizon.self_s": "s",
    "miners.run_horizon.calls": "count",
    "miners.uniform_feasible_pairing.total_s": "s",
    "miners.recommend_matching.calls": "count",
    "equilibrium.realize_profile.total_s": "s",
    "equilibrium.msne.total_s": "s",
    "equilibrium.mixed_share": "share",
    "equilibrium.psne.total_s": "s",
    "equilibrium.crossing_index.calls": "count",
    "market.build_instance.total_s": "s",
    "distributions.sample.total_s": "s",
    "welfare.social_optimum.calls": "count",
    "welfare.social_optimum.total_s": "s",
    "welfare.optimum_calls_per_play": "ratio",
    "welfare.social_welfare.total_s": "s",
    "mechanism.capped_search_report.calls": "count",
    "mechanism.optimal_block_size_complete.calls": "count",
    "mechanism.optimal_block_size_distributional.calls": "count",
    "experiments.simulate_once.total_s": "s",
    "reporting.emit_report.total_s": "s",
    "reporting.report_bytes": "bytes",
    "cli.main.total_s": "s",
    "trace.overhead_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _run_child(root: Path, env: dict, argv: list[str], trace_path: str, timeout: float,
               setup_only: bool = False) -> tuple[dict | None, str | None]:
    """One invocation in a fresh interpreter: (result, None) or (None, error)."""
    flags = ["--setup-only"] if setup_only else []
    spawn = _now()
    cmd = [sys.executable, str(CHILD), repr(spawn), trace_path, *flags, "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return None, f"exit code {proc.returncode}: {tail}"
    if setup_only:
        return {}, None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, "no result line from the invocation"
    src = (root / "src").resolve()
    if not Path(result["chainbook_file"]).resolve().is_relative_to(src):
        return None, f"imported chainbook from {result['chainbook_file']}, not {src}"
    return result, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: few replications, for smoke tests only",
    )
    args = parser.parse_args(argv)
    begin = _now()

    root = Path.cwd()
    if not (root / "src" / "chainbook" / "cli.py").is_file():
        print(f"error: {root} is not a chainbook checkout (no src/chainbook/cli.py)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config, sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
    report_path = work / "report.json"
    trace_path = work / "spans.json"
    chainbook_argv = workload.argv(
        args.seed, args.size,
        str(config_path.relative_to(root)), str(report_path.relative_to(root)),
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )

    # Untimed warm-up: byte-compiles the package and fills the page cache,
    # which a user pays once, not per run.
    _, err = _run_child(root, env, chainbook_argv, "-", DEADLINE_S, setup_only=True)
    if err:
        print(f"error: chainbook does not start: {err}", file=sys.stderr)
        return 1

    kinds = ("plain", "traced") if args.trace else ("plain",)
    records: dict[str, list[dict]] = {kind: [] for kind in kinds}
    tried = {kind: 0 for kind in kinds}
    failures: list[str] = []
    notes: set[str] = set()
    reference: bytes | None = None
    start = _now()
    while True:
        # Start no invocation that would, at the mean pace so far, end past the window.
        elapsed = _now() - start
        pace = elapsed / sum(tried.values()) if sum(tried.values()) else 0.0
        if min(tried.values()) > 0 and elapsed + pace > args.seconds:
            break
        timeout = begin + DEADLINE_S - _now()
        if timeout <= 0:
            break
        kind = kinds[sum(tried.values()) % len(kinds)]
        tried[kind] += 1
        report_path.unlink(missing_ok=True)
        trace_path.unlink(missing_ok=True)
        spans_arg = str(trace_path) if kind == "traced" else "-"
        result, err = _run_child(root, env, chainbook_argv, spans_arg, timeout)
        if err is None:
            try:
                data = report_path.read_bytes()
            except FileNotFoundError:
                data, err = b"", "no report written"
        if err is None:
            errors, found = validate_report(data, workload, args.seed)
            notes.update(found)
            if reference is None:
                reference = data
            elif data != reference:
                errors.append("report bytes differ from the first invocation of this run")
            if errors:
                err = "; ".join(errors)
        if err is not None:
            failures.append(f"{kind} invocation {tried[kind]}: {err}")
            continue
        if kind == "traced":
            result["layer"] = summarize(json.loads(trace_path.read_text(encoding="utf-8")))
        records[kind].append(result)

    attempted = sum(tried.values())
    failed = len(failures)
    plain = records["plain"]
    if not plain or (args.trace and not records["traced"]):
        for line in failures:
            print(f"FAILED {line}", file=sys.stderr)
        print("error: no invocation succeeded", file=sys.stderr)
        return 1

    plays = workload.plays(args.size)
    samples = {
        "run_s": [r["run_s"] for r in plain],
        "plays_per_s": [plays / r["run_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    end_to_end = {name: statistics.median(values) for name, values in samples.items()}
    per_layer: dict[str, float] = {}
    if args.trace:
        traced = records["traced"]
        per_layer["trace.overhead_s"] = (
            statistics.median([r["run_s"] for r in traced]) - end_to_end["run_s"]
        )
        per_layer["reporting.report_bytes"] = len(reference)
        for name in PER_LAYER.keys() - per_layer.keys():
            per_layer[name] = statistics.median([r["layer"][name] for r in traced])

    provenance = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "git_commit": _git_commit(root),
        "versions": plain[0]["versions"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "argv": ["chainbook", *chainbook_argv],
        "config": workload.config,
        "plays_per_invocation": plays,
        "report_sha256": hashlib.sha256(reference).hexdigest(),
    }
    for key, value in provenance.items():
        print(f"# {key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
    for name, unit in END_TO_END.items():
        values = samples[name]
        print(f"{name:<50} {end_to_end[name]:.6g} {unit}  "
              f"(median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    print(f"{'fail_rate':<50} {failed / attempted:.6g} share  "
          f"({failed} failed of {attempted} invocations)")
    if args.trace:
        print(f"# traced invocations: {len(records['traced'])} (medians below)")
        for name, unit in PER_LAYER.items():
            print(f"{name:<50} {per_layer[name]:.6g} {unit}")
        self_times = {
            k: statistics.median([r["layer"][k] for r in traced])
            for k in traced[0]["layer"] if k.endswith(".self_s") and not k.startswith("layer.")
        }
        top = max(self_times, key=self_times.get)
        print(f"# largest function self time: {top} {self_times[top]:.6g} s")
    for note in sorted(notes):
        print(f"# note: {note}")
    for line in failures:
        print(f"# FAILED {line}")

    metrics = per_layer if args.trace else end_to_end
    units = PER_LAYER if args.trace else END_TO_END
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (work / "result.json").write_text(
        json.dumps(
            {"provenance": provenance, "summary": summary, "samples": samples,
             "failures": failures, "notes": sorted(notes), "records": records},
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
