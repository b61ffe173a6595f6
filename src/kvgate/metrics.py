"""Metrics records (JSON lines) and plot-ready CSV reports.

Records are append-only and schema-versioned; every record carries the
config hash and seed it was produced under. Nothing here touches the
clock, so identical runs serialize to identical bytes. Timestamps belong
to the sidecar log, not to metrics.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
ENVELOPE_KEYS = ("schema", "kind", "config", "seed")


def _plain(value):
    """A JSON-serializable copy of a field: Python scalars, lists of them."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"metric value of unsupported type {type(value).__name__}")


def make_record(kind: str, config_hash: str, seed: int, fields: dict) -> dict:
    clash = set(fields) & set(ENVELOPE_KEYS)
    if clash:
        raise ValueError(f"metric fields shadow envelope keys: {sorted(clash)}")
    record = {"schema": SCHEMA_VERSION, "kind": kind,
              "config": config_hash, "seed": int(seed)}
    for key in fields:
        record[key] = _plain(fields[key])
    return record


def dump_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_records(path, records) -> None:
    text = "".join(dump_record(r) + "\n" for r in records)
    Path(path).write_text(text, encoding="utf-8")


def _finite_number(text: str):
    """JSON number hook: NaN, Infinity and what overflows a float64 are errors."""
    if not math.isfinite(float(text)):
        raise ValueError(f"number {text[:32]} is not a finite float64")
    return int(text) if text.lstrip("-").isdigit() else float(text)


def read_records(path) -> list:
    """Records of a JSONL metrics file; a malformed line raises naming path:line."""
    out = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line, parse_int=_finite_number,
                                parse_float=_finite_number,
                                parse_constant=_finite_number)
            if not (isinstance(record, dict)
                    and isinstance(record.get("kind"), str)):
                raise ValueError("a metrics record is a JSON object with a "
                                 "string kind")
            schema = record.get("schema")
            if type(schema) is not int or schema != SCHEMA_VERSION:
                raise ValueError(f"metrics schema {schema!r} is not {SCHEMA_VERSION}")
        except ValueError as bad:
            raise ValueError(f"{path}:{line_no}: {bad}") from None
        except RecursionError:
            raise ValueError(f"{path}:{line_no}: JSON nested too deeply") from None
        out.append(record)
    return out


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _x_key(records: list) -> str:
    for candidate in ("ratio", "step", "budget"):
        if all(candidate in r for r in records):
            return candidate
    return "row"


def report_tables(records: list) -> tuple[dict, dict]:
    """CSV text per (kind, policy, metric) plus a summary tree.

    Raises on empty input (an empty sweep is a mistake, not a report), on
    non-numeric x values, and on names that cannot make a file name.
    """
    records = list(records)
    if not records:
        raise ValueError("no metrics records to report")
    groups = {}
    for record in records:
        label = str(record.get("policy", "all"))
        # Per-step records gain one curve per budget instead of a budget
        # x-axis with repeated points.
        folded = "budget" in record and "step" in record
        if folded:
            label += f".b{record['budget']}"
        groups.setdefault((record["kind"], label, folded), []).append(record)

    tables = {}
    summary_groups = {}
    for (kind, policy, folded) in sorted(groups):
        rows = groups[(kind, policy, folded)]
        x_key = _x_key(rows)
        if any(type(r.get(x_key, 0)) not in (int, float) for r in rows):
            raise ValueError(f"{kind}/{policy}: {x_key} values must be numbers")
        order = sorted(range(len(rows)),
                       key=lambda i: (rows[i].get(x_key, i), i))
        skip = set(ENVELOPE_KEYS) | {"policy", x_key}
        if folded:
            skip.add("budget")
        metrics = sorted({key for r in rows for key in r
                          if key not in skip
                          and isinstance(r[key], (int, float, bool))})
        group_summary = {}
        for metric in metrics:
            lines = [f"{x_key},{metric}"]
            values = []
            for i in order:
                if metric not in rows[i]:
                    continue
                x = rows[i].get(x_key, i)
                value = rows[i][metric]
                values.append(float(value))
                lines.append(f"{_csv_cell(x)},{_csv_cell(value)}")
            name = f"{kind}.{policy}.{metric}.csv"
            if "/" in name or "\0" in name or len(name.encode("utf-8")) > 255:
                raise ValueError(f"no report file can be named {name[:64]!r}")
            tables[name] = "\n".join(lines) + "\n"
            group_summary[metric] = {
                "n": len(values),
                "mean": float(np.mean(values)),
                "min": float(np.min(values)),
                "max": float(np.max(values)),
            }
        summary_groups[f"{kind}/{policy}"] = group_summary
    summary = {"schema": SCHEMA_VERSION, "records": len(records),
               "groups": summary_groups}
    return tables, summary


def write_report(out_dir, records) -> list:
    """Write the CSVs and summary.json under ``out_dir``; returns the paths."""
    tables, summary = report_tables(records)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(tables):
        path = out / name
        path.write_text(tables[name], encoding="utf-8")
        written.append(path)
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2,
                                       allow_nan=False) + "\n",
                            encoding="utf-8")
    written.append(summary_path)
    return written
