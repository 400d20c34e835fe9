"""Verification reports: per-check records, JSON serialization, merging.

Reports are deterministic: given the same configuration and seeds the JSON
output is byte-identical (all reductions are sequential, no timestamps).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1
DIRECTIONS = ("max_below", "min_above")


@dataclass(frozen=True)
class CheckRecord:
    """One verified identity: its residual statistics and pass verdict.

    direction "max_below" passes when the residual stays under the tolerance;
    "min_above" marks negative controls that must exceed the threshold.
    """

    name: str
    anchor: str
    residual_max: float
    residual_mean: float
    samples: int
    tolerance: float
    direction: str = "max_below"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}, expected one of {DIRECTIONS}"
            )
        if type(self.samples) is not int or self.samples < 0:
            raise ValueError(f"samples must be a non-negative integer, got {self.samples!r}")

    @property
    def passed(self):
        if self.direction == "min_above":
            return self.residual_max > self.tolerance
        return self.residual_max < self.tolerance

    def to_dict(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "residual_max": float(self.residual_max),
            "residual_mean": float(self.residual_mean),
            "samples": int(self.samples),
            "tolerance": float(self.tolerance),
            "direction": self.direction,
            "pass": bool(self.passed),
        }

    @classmethod
    def from_dict(cls, d):
        record = cls(
            name=str(d["name"]),
            anchor=str(d["anchor"]),
            residual_max=float(d["residual_max"]),
            residual_mean=float(d["residual_mean"]),
            samples=d["samples"],
            tolerance=float(d["tolerance"]),
            direction=d.get("direction", "max_below"),
        )
        _require_verdict(d, record.passed, f"record {record.name!r}")
        return record


def _require_verdict(d, passed, what):
    """A stored "pass" must be the verdict that the values give."""
    if d.get("pass", passed) is not passed:
        raise ValueError(f"{what} is stored as pass {d['pass']!r}, but its values give {passed}")


def record_from_values(name, anchor, values, tolerance, direction="max_below"):
    vals = np.asarray([abs(v) for v in values], dtype=float)
    stat = float(np.min(vals)) if direction == "min_above" else float(np.max(vals))
    return CheckRecord(
        name=name,
        anchor=anchor,
        residual_max=stat,
        residual_mean=float(np.mean(vals)),
        samples=len(vals),
        tolerance=tolerance,
        direction=direction,
    )


def environment_stamp():
    # "threads" is a constant of schema 1; the campaigns run on one thread
    return {
        "float_eps": float(np.finfo(float).eps),
        "numpy": np.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "threads": 1,
    }


@dataclass
class VerificationReport:
    campaign: str
    records: list[CheckRecord] = field(default_factory=list)
    environment: dict = field(default_factory=environment_stamp)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "campaign": self.campaign,
            "environment": self.environment,
            "records": [r.to_dict() for r in self.records],
            "pass": bool(self.passed),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self):
        lines = [f"campaign: {self.campaign}"]
        for r in self.records:
            verdict = "PASS" if r.passed else "FAIL"
            op = ">" if r.direction == "min_above" else "<"
            lines.append(
                f"  {verdict} {r.name}: {r.residual_max:.3e} {op} "
                f"{r.tolerance:.1e} (n={r.samples}) [{r.anchor}]"
            )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("a report must be a JSON object")
        if d.get("schema") != SCHEMA_VERSION:
            raise ValueError("unsupported report schema")
        rep = cls(d["campaign"], environment=d.get("environment", {}))
        if not d["records"]:
            raise ValueError("a report must hold at least one record")
        rep.records.extend(map(CheckRecord.from_dict, d["records"]))
        _require_verdict(d, rep.passed, "the report")
        return rep


def merge_reports(reports):
    """One report, campaign "merged", holding the records of reports in order;
    records are told apart by name, so a name met twice raises ValueError."""
    records = [r for rep in reports for r in rep.records]
    for name, count in Counter(r.name for r in records).items():
        if count > 1:
            raise ValueError(f"{count} records are named {name!r}")
    return VerificationReport("merged", records)
