"""Verdict records and deterministic serialization helpers."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-12


def leq(a: float, b: float, rtol: float = REL_TOL) -> bool:
    """a <= b up to relative slack: the float comparison behind length and weighted bounds."""
    return a <= b + rtol * max(abs(a), abs(b), 1.0)


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail with the worst numeric residual seen."""

    name: str
    passed: bool
    residual: float = 0.0
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "residual": self.residual}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class SampledInequality:
    """A sampled pairwise inequality: pairs checked, pairs skipped, violating pairs."""

    checked: int
    skipped: int
    violations: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_check(self, name: str) -> CheckResult:
        return CheckResult(name, self.passed, detail=f"{self.checked} checked, {self.skipped} skipped")


def dump_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(dump_json(payload), encoding="utf-8")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
