"""Deterministic check reports in JSON and CSV.

The serialized forms are byte-stable for a fixed (config, seed): key order is
fixed by construction, floats use shortest round-trip repr, complex numbers
are [re, im] pairs, and the wall-clock measurement is kept on the in-memory
report only (it would break byte-level determinism in files).  Reports are
strict JSON: a non-finite float is written as the string "inf", "-inf" or
"nan", and such a value fails its check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class CheckRecord:
    name: str
    value: object
    tolerance: Optional[float]
    passed: bool


@dataclass
class Report:
    command: str
    config_hash: str
    results: dict = field(default_factory=dict)
    checks: List[CheckRecord] = field(default_factory=list)
    wall_time_s: float = 0.0

    def add(self, name: str, value, tolerance: Optional[float],
            passed: Optional[bool] = None) -> CheckRecord:
        """Append a check; by default a scalar value passes when <= tolerance."""
        if passed is None:
            passed = bool(abs(value) <= tolerance)
        rec = CheckRecord(name=name, value=value, tolerance=tolerance,
                          passed=bool(passed))
        self.checks.append(rec)
        return rec

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> Optional[str]:
        for c in self.checks:
            if not c.passed:
                return c.name
        return None


def encode_value(value):
    """Strict-JSON encoding; complex numbers become [re, im] pairs and
    non-finite floats the strings "inf", "-inf" and "nan"."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return [encode_value(value.real), encode_value(value.imag)]
    if isinstance(value, np.ndarray):
        return encode_value(value.tolist())
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def report_to_json_bytes(report: Report) -> bytes:
    obj = {
        "command": report.command,
        "config_hash": report.config_hash,
        "results": encode_value(report.results),
        "checks": [
            {
                "name": c.name,
                "value": encode_value(c.value),
                "tolerance": encode_value(c.tolerance),
                "pass": c.passed,
            }
            for c in report.checks
        ],
    }
    return (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode()


CSV_HEADER = ["config_hash", "name", "value", "tolerance", "pass"]


def report_to_csv_bytes(report: Report) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for c in report.checks:
        writer.writerow([
            report.config_hash,
            c.name,
            json.dumps(encode_value(c.value), allow_nan=False),
            "" if c.tolerance is None else repr(c.tolerance),
            "true" if c.passed else "false",
        ])
    return buf.getvalue().encode()


def emit_report(report: Report, fmt: str = "json",
                path: Optional[str] = None) -> bytes:
    """Serialize and write the report; returns the emitted bytes."""
    if fmt == "json":
        payload = report_to_json_bytes(report)
    elif fmt == "csv":
        payload = report_to_csv_bytes(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is None:
        sys.stdout.write(payload.decode())
    else:
        with open(path, "wb") as fh:
            fh.write(payload)
    return payload
