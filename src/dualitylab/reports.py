"""Verdict records, input-field rules and deterministic serialization helpers."""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
LOOSE_TOL = 1e-9  # for the rounding of tight products: exp of a sum against a product of exps


class ConfigError(ValueError):
    """Invalid input: (path, message) pairs, one per path at fault, "" for the checked argument."""

    def __init__(self, errors):
        self.errors = [(str(p), str(m)) for p, m in errors]
        super().__init__("; ".join(f"{p}: {m}" if p else m for p, m in self.errors))


def fail(path: str, message: str):
    raise ConfigError([(path, message)])


def as_int(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        fail(path, f"must be <= {maximum}, got {value}")
    return value


def as_fraction(value, path: str, minimum=None) -> Fraction:
    """Exact rational from an int, a decimal float, or an [num, den] pair, within float range."""
    if isinstance(value, bool):
        fail(path, f"expected a number, got {value!r}")
    if isinstance(value, Fraction):  # internal defaults and parsed recipes arrive exact
        q = value
    elif isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            fail(path, f"expected a finite number, got {value!r}")
        q = Fraction(str(value))
    elif (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        if value[1] == 0:
            fail(path, "denominator must be nonzero")
        q = Fraction(value[0], value[1])
    else:
        fail(path, f"expected a number or [num, den] pair, got {value!r}")
    if abs(q) > sys.float_info.max:  # tolerance, C and recipe values are read as floats
        fail(path, f"must be within float range (magnitude <= {sys.float_info.max:.4g})")
    if minimum is not None and q < minimum:
        fail(path, f"must be >= {minimum}, got {q}")
    return q


def leq(a: float, b: float, rtol: float = REL_TOL) -> bool:
    """a <= b up to relative slack: the float comparison behind length and weighted bounds."""
    return a <= b + rtol * max(abs(a), abs(b), 1.0)


def leq_array(a, b, rtol: float = REL_TOL):
    """``leq`` entry by entry on float64 arrays, with its bits."""
    return a <= b + rtol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


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


def sample_pairs(pool, samples: int, seed: int, holds) -> SampledInequality:
    """Test ``holds(x, y)`` on ``samples`` pairs drawn from ``pool`` (x first) by Random(seed).

    ``holds`` returns True, False, or None for a pair it cannot evaluate (skipped).
    """
    rng = random.Random(seed)
    checked = skipped = 0
    violations = []
    for _ in range(samples):
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        verdict = holds(x, y)
        if verdict is None:
            skipped += 1
            continue
        checked += 1
        if not verdict:
            violations.append((x, y))
    return SampledInequality(checked=checked, skipped=skipped, violations=tuple(violations))


def fold(name: str, outcomes) -> CheckResult:
    """One named check over ``(ok, residual, tag)`` outcomes, every one consumed in order.

    Passes when every outcome is ok; the residual is the worst one, floored at 0,
    and the detail is the first failing tag.
    """
    passed, worst, witness = True, 0.0, ""
    for ok, residual, tag in outcomes:
        worst = max(worst, residual)
        if passed and not ok:
            passed, witness = False, tag
    return CheckResult(name, passed, residual=worst, detail=witness)


def leq_trials(name: str, trials: int, draw, rtol: float) -> CheckResult:
    """Test ``leq(lhs, rhs, rtol)`` on ``trials`` pairs from ``draw()``, called in order.

    Passes when every pair holds; the residual is the worst lhs - rhs, floored at 0,
    and the detail names the first failing trial and its pair.
    """

    def outcomes():
        for i in range(trials):
            lhs, rhs = draw()
            ok = leq(lhs, rhs, rtol)
            # a tag costs a string, so only a failing trial builds one
            yield ok, lhs - rhs, "" if ok else f"trial {i}: lhs {lhs!r}, rhs {rhs!r}"

    return fold(name, outcomes())


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
