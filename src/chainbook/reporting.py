"""Machine-readable experiment reports (JSON and CSV) with stable layout."""

from __future__ import annotations

import csv
import io
import json

__all__ = ["emit_report", "report_payload", "result_row", "CSV_COLUMNS"]

CSV_COLUMNS = [
    "scenario",
    "mechanism",
    "period",
    "N",
    "K",
    "A",
    "sw_mean",
    "sw_stderr",
    "sw_opt",
    "ratio",
]


def result_row(
    scenario: str,
    mechanism: str,
    n: int,
    k: int,
    a="",
    sw_mean="",
    sw_stderr="",
    sw_opt="",
    ratio="",
    **extra,
) -> dict:
    """One report row: the fixed fields (blank where a command has no value) plus extras."""
    return {
        "scenario": scenario,
        "mechanism": mechanism,
        "N": n,
        "K": k,
        "A": a,
        "sw_mean": sw_mean,
        "sw_stderr": sw_stderr,
        "sw_opt": sw_opt,
        "ratio": ratio,
        **extra,
    }


def _version() -> str:
    """``chainbook.__version__``, read without the packaging metadata."""
    from . import __version__  # the package is loaded by the time a report is written
    return __version__


def report_payload(results: list[dict], config: dict, seed: int) -> dict:
    """The canonical report object: config echo, seed, version, result rows."""
    return {
        "config": config,
        "seed": seed,
        "version": f"chainbook-{_version()}",
        "results": results,
    }


def _to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in payload["results"]:
        writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})
    return buf.getvalue()


def emit_report(
    results: list[dict],
    fmt: str,
    path: str | None,
    config: dict | None = None,
    seed: int = 0,
) -> str:
    """Serialize result rows deterministically; write to ``path`` if given.

    JSON carries the full payload (config echo, seed, version); CSV carries
    the rows under the documented column order.  Returns the serialized text.
    """
    payload = report_payload(results, config or {}, seed)
    if fmt == "json":
        text = _to_json(payload)
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected 'json' or 'csv')")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
