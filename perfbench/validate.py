"""Checks on one `chainbook experiment` JSON report.

A report fails when it does not parse, lacks or adds rows, holds a value
that is not finite, has a nonpositive optimum, or claims more welfare than
the optimum.  ``validate_report`` returns ``(errors, notes)``: errors fail
the run, notes are printed for information.
"""

from __future__ import annotations

import json
import math

from workloads import UNPAIRED_RATIO_MECHANISMS, Workload

RATIO_SLACK = 1e-9
NUMERIC_FIELDS = ("N", "K", "A", "sw_mean", "sw_stderr", "sw_opt", "ratio")


def validate_report(data: bytes, workload: Workload, seed: int) -> tuple[list[str], list[str]]:
    try:
        payload = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"report is not JSON: {exc}"], []
    if not isinstance(payload, dict) or not isinstance(payload.get("results"), list):
        return ["report has no 'results' list"], []
    errors: list[str] = []
    notes: list[str] = []
    if payload.get("seed") != seed:
        errors.append(f"report seed {payload.get('seed')!r} != {seed}")

    rows = payload["results"]
    mechanisms = workload.mechanisms()
    expected = len(mechanisms) * len(workload.sellers)
    if len(rows) != expected:
        errors.append(f"{len(rows)} rows, expected {expected} ({len(mechanisms)} per N)")
    want = [(n, m) for n in workload.sellers for m in mechanisms]
    got = [(row.get("N"), row.get("mechanism")) for row in rows if isinstance(row, dict)]
    if got != want:
        missing = sorted(set(want) - set(got), key=str)
        extra = sorted(set(got) - set(want), key=str)
        errors.append(f"rows differ from the expected layout: missing {missing}, extra {extra}")

    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"row {i} is not an object")
            continue
        where = f"row {i} ({row.get('mechanism')}, N={row.get('N')})"
        if row.get("scenario") != workload.scenario:
            errors.append(f"{where}: scenario {row.get('scenario')!r}")
        bad = [
            k for k in NUMERIC_FIELDS
            if not isinstance(row.get(k), (int, float)) or not math.isfinite(row[k])
        ]
        if bad:
            errors.append(f"{where}: missing or non-finite {', '.join(bad)}")
            continue
        if row["sw_opt"] <= 0.0:
            errors.append(f"{where}: sw_opt = {row['sw_opt']!r} is not positive")
        if row["ratio"] > 1.0 + RATIO_SLACK:
            if row["mechanism"] in UNPAIRED_RATIO_MECHANISMS:
                notes.append(
                    f"{where}: ratio {row['ratio']!r} > 1 on unpaired populations (known defect)"
                )
            else:
                errors.append(f"{where}: ratio {row['ratio']!r} > 1 (welfare above the optimum)")
        if row["mechanism"] == "social_optimum" and row["ratio"] != 1.0:
            errors.append(f"{where}: social_optimum ratio {row['ratio']!r} != 1")
    return errors, notes
