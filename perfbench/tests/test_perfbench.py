"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import summarize  # noqa: E402
from validate import validate_report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def _good_report(workload) -> dict:
    rows = []
    for n in workload.sellers:
        for mechanism in workload.mechanisms():
            ratio = 1.0 if mechanism == "social_optimum" else 0.8
            rows.append({
                "scenario": workload.scenario, "mechanism": mechanism, "N": n, "K": n,
                "A": n // 2, "sw_mean": 8.0 * ratio, "sw_stderr": 0.1, "sw_opt": 8.0,
                "ratio": ratio,
            })
    return {"config": {}, "seed": SEED, "version": "chainbook-0.1.0", "results": rows}


def _encode(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, indent=2).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_validator_accepts_a_well_formed_report(name):
    workload = WORKLOADS[name]
    assert validate_report(_encode(_good_report(workload)), workload, SEED) == ([], [])


def test_validator_rejects_ratio_above_one():
    workload = WORKLOADS["compare_large"]
    report = _good_report(workload)
    report["results"][0]["ratio"] = 1.01
    errors, _ = validate_report(_encode(report), workload, SEED)
    assert any("ratio" in e and "> 1" in e for e in errors)


def test_validator_rejects_a_missing_row():
    workload = WORKLOADS["compare_small_heterog"]
    report = _good_report(workload)
    del report["results"][3]
    errors, _ = validate_report(_encode(report), workload, SEED)
    assert any("rows" in e for e in errors)


def test_validator_rejects_nan():
    workload = WORKLOADS["capped_search"]
    report = _good_report(workload)
    report["results"][1]["sw_mean"] = math.nan
    errors, _ = validate_report(_encode(report), workload, SEED)
    assert any("non-finite sw_mean" in e for e in errors)


def test_validator_rejects_nonpositive_optimum_and_inexact_optimum_row():
    workload = WORKLOADS["compare_large"]
    report = _good_report(workload)
    report["results"][0]["sw_opt"] = 0.0
    report["results"][4]["ratio"] = 0.999
    errors, _ = validate_report(_encode(report), workload, SEED)
    assert any("sw_opt" in e for e in errors)
    assert any("social_optimum ratio" in e for e in errors)


def test_unpaired_capped_ratio_is_a_note_not_an_error():
    workload = WORKLOADS["capped_search"]
    report = _good_report(workload)
    report["results"][0]["ratio"] = 1.02  # abs_capped
    errors, notes = validate_report(_encode(report), workload, SEED)
    assert errors == []
    assert len(notes) == 1 and "unpaired" in notes[0]


def test_summarize_self_time_subtracts_direct_children():
    dump = {
        "names": ["cli.main", "miners.run_horizon", "miners.run_round"],
        "spans": [
            [0, -1, 0, 0.0, 10.0, None],
            [1, 0, 1, 1.0, 5.0, None],
            [2, 1, 2, 2.0, 3.0, None],
            [3, 1, 2, 3.0, 4.5, None],
        ],
    }
    out = summarize(dump)
    assert out["cli.main.self_s"] == pytest.approx(6.0)
    assert out["miners.run_horizon.self_s"] == pytest.approx(1.5)
    assert out["miners.run_round.total_s"] == pytest.approx(2.5)
    assert out["miners.rounds_per_horizon"] == 2.0
    assert out["layer.miners.self_s"] == pytest.approx(4.0)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_named_metric_with_its_unit(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: (v["unit"]) for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in SPEC["end_to_end"] + (SPEC["per_layer"] if trace == "1" else []):
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()[2:3]
            for line in lines[:-1]
        ), metric["name"]
    assert any(line.startswith("fail_rate ") for line in lines)
    assert any(line.startswith("# report_sha256: ") for line in lines)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "compare_large", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
