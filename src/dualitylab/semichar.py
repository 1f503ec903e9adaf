"""Submultiplicative weights built from a closed constructor grammar.

A weight here is a function f on a group with f >= 1 and
f(x*y) <= f(x) * f(y); the grammar below produces only such functions, so
submultiplicativity holds by construction and the sampled verifier is a
cross-check of that construction.  Both audits here, the sampled
f(x*y) <= f(x) f(y) and f(x) <= exp(length(x)) over the settled ball, compare
at ``reports.LOOSE_TOL`` (1e-9), which absorbs the rounding of exp of a sum
against a product of exps.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

from .groups import Element, GeneratorSet, Group
from .length import LengthReport, UnexploredError, WeightFunction
from .reports import LOOSE_TOL, ConfigError, SampledInequality, as_fraction, fail, leq, sample_pairs


class Semicharacter:
    """Base class; subclasses implement value() and carry the home group.

    ``group`` is None for group-agnostic leaves (constants), which combine
    with anything.
    """

    group: Group | None = None

    def value(self, x) -> float:
        raise NotImplementedError

    def __call__(self, x) -> float:
        return self.value(x)


def _join_groups(f: Semicharacter, g: Semicharacter) -> Group | None:
    if f.group is None:
        return g.group
    if g.group is None or f.group is g.group:
        return f.group
    raise ValueError(f"mismatched groups {f.group.label!r} and {g.group.label!r}")


class Constant(Semicharacter):
    """The constant function C >= 1."""

    def __init__(self, c):
        c = float(c)
        if c < 1.0:
            raise ValueError(f"constant must be >= 1, got {c}")
        self.c = c

    def value(self, x) -> float:
        return self.c


class ExpLength(Semicharacter):
    """exp of a weighted word length, evaluable on the settled search region."""

    def __init__(self, report: LengthReport):
        self.report = report
        self.group = report.group

    def value(self, x) -> float:
        return math.exp(float(self.report.final_length(x)))


class _Pointwise(Semicharacter):
    """A pointwise combination of two weights on a common group."""

    def __init__(self, f: Semicharacter, g: Semicharacter):
        self.group = _join_groups(f, g)
        self.f, self.g = f, g


class Sum(_Pointwise):
    def value(self, x) -> float:
        return self.f.value(x) + self.g.value(x)


class Product(_Pointwise):
    def value(self, x) -> float:
        return self.f.value(x) * self.g.value(x)


class Max(_Pointwise):
    def value(self, x) -> float:
        return max(self.f.value(x), self.g.value(x))


class Scale(Semicharacter):
    """C * f for C >= 1."""

    def __init__(self, c, f: Semicharacter):
        c = float(c)
        if c < 1.0:
            raise ValueError(f"scale factor must be >= 1, got {c}")
        self.c = c
        self.f = f
        self.group = f.group

    def value(self, x) -> float:
        return self.c * self.f.value(x)


class Inverse(Semicharacter):
    """x -> f(x^-1); needs the group to invert, so the group must be known."""

    def __init__(self, f: Semicharacter, group: Group | None = None):
        self.group = f.group or group
        if self.group is None:
            raise ValueError("inverse twist needs a group")
        self.f = f

    def value(self, x) -> float:
        return self.f.value(self.group.inv(self.group.check(x)))


def sampled_submultiplicativity(
    f: Semicharacter,
    elements,
    group: Group,
    samples: int = 400,
    seed: int = 0,
) -> SampledInequality:
    """Sample pairs from ``elements`` and test f(x*y) <= f(x) f(y) in ``group``.

    Pairs that leave the evaluable region are skipped.
    """
    pool = [group.check(x) for x in elements]
    if not pool:
        raise ValueError("empty sample pool")

    def holds(x, y):
        try:
            return leq(f.value(group.mul(x, y)), f.value(x) * f.value(y), LOOSE_TOL)
        except UnexploredError:
            return None

    return sample_pairs(pool, samples, seed, holds)


def majorize(f: Semicharacter, generators: GeneratorSet) -> WeightFunction:
    """Weights F(a) = log f(a), rounded up to exact rationals.

    The rounding direction matters: any F with F(a) >= log f(a) keeps the
    guarantee f(x) <= exp(length_F(x)) on every explored element, because a
    cheapest factorization under F still dominates the telescoped logs.
    """
    values = []
    for a in generators.elements:
        v = math.log(f.value(a))
        values.append(_rat_at_least(v))
    return WeightFunction(tuple(values))


def _rat_at_least(x: float) -> Fraction:
    """Smallest k / 2^40 that is >= x (and >= 0)."""
    if x <= 0.0:
        return Fraction(0)
    return Fraction(math.ceil(x * (1 << 40)), 1 << 40)


def majorization_check(
    f: Semicharacter,
    report: LengthReport,
) -> tuple[int, tuple[Element, ...]]:
    """Verify f(x) <= exp(length(x)) across the settled region of ``report``.

    Returns (number checked, tuple of violating elements).
    """
    violations = []
    checked = 0
    for x, v in report.final_items():
        checked += 1
        if not leq(f.value(x), math.exp(float(v)), LOOSE_TOL):
            violations.append(x)
    return checked, tuple(violations)


# recipe kind -> the fields it takes besides "kind"
_RECIPE_FIELDS = {
    "const": ("value",),
    "expLength": (),
    "sum": ("args",),
    "product": ("args",),
    "max": ("args",),
    "scale": ("value", "arg"),
    "inverse": ("arg",),
}
_RECIPE_KEYS = {"kind"}.union(*_RECIPE_FIELDS.values())
_COMBINE = {"sum": Sum, "product": Product, "max": Max}


def parse_recipe(recipe, path: str = "recipe") -> dict:
    """Validate a recipe tree; returns a copy whose ``value``s (default 1) are Fractions.

    Errors raise ConfigError at JSON paths below ``path``.
    """
    if not isinstance(recipe, dict) or "kind" not in recipe:
        fail(path, f"expected an object with a 'kind', got {recipe!r}")
    unknown = set(recipe) - _RECIPE_KEYS
    if unknown:
        raise ConfigError([(f"{path}.{k}", "unknown key") for k in sorted(unknown)])
    kind = recipe["kind"]
    if not isinstance(kind, str) or kind not in _RECIPE_FIELDS:
        fail(f"{path}.kind", f"unknown recipe kind {kind!r}")
    fields = _RECIPE_FIELDS[kind]
    for key in sorted(set(recipe) - {"kind", *fields}):
        fail(f"{path}.{key}", f"not a {kind} field")
    out = {"kind": kind}
    if "value" in fields:
        out["value"] = as_fraction(recipe.get("value", 1), f"{path}.value", minimum=1)
    if "args" in fields:
        args = recipe.get("args")
        if not isinstance(args, list) or len(args) < 2:
            fail(f"{path}.args", f"{kind} needs a list with at least two entries")
        out["args"] = [parse_recipe(a, f"{path}.args[{i}]") for i, a in enumerate(args)]
    if "arg" in fields:
        if "arg" not in recipe:
            fail(f"{path}.arg", "required")
        out["arg"] = parse_recipe(recipe["arg"], f"{path}.arg")
    return out


def _kinds(recipe: dict) -> set[str]:
    """The kind of every node of a parsed recipe tree."""
    subs = recipe.get("args", []) + ([recipe["arg"]] if "arg" in recipe else [])
    return {recipe["kind"]}.union(*map(_kinds, subs))


def reads_inverse(recipe: dict) -> bool:
    """Whether the weight a parsed recipe builds is read at x^-1, through an inverse node."""
    return "inverse" in _kinds(recipe)


def reads_exp_length(recipe: dict) -> bool:
    """Whether the weight a parsed recipe builds has an ``ExpLength`` leaf."""
    return "expLength" in _kinds(recipe)


def require_exp_length_radius(radius) -> None:
    """ConfigError at "" unless ``ExpLength`` can read every length up to ``radius``: exp of a
    length above log(DBL_MAX), about 709.78, overflows a double."""
    try:
        math.exp(float(radius))
    except OverflowError:
        fail("", f"must be at most {math.log(sys.float_info.max):.6f}, past which exp(length) "
                 f"overflows a double, got {radius}")


def build_semicharacter(recipe: dict, report: LengthReport) -> Semicharacter:
    """Assemble a weight from a JSON-style recipe tree.

    Leaves: {"kind": "const", "value": C} and {"kind": "expLength"} (the
    latter binds to ``report``).  Nodes: sum/product/max with "args", scale
    with "value" and "arg", inverse with "arg".  A malformed recipe raises
    ConfigError (a ValueError) from ``parse_recipe``.
    """
    return _assemble(parse_recipe(recipe), report)


def _assemble(recipe: dict, report: LengthReport) -> Semicharacter:
    kind = recipe["kind"]
    if kind == "const":
        return Constant(recipe["value"])
    if kind == "expLength":
        return ExpLength(report)
    if kind == "scale":
        return Scale(recipe["value"], _assemble(recipe["arg"], report))
    if kind == "inverse":
        return Inverse(_assemble(recipe["arg"], report), group=report.group)
    return functools.reduce(_COMBINE[kind], (_assemble(a, report) for a in recipe["args"]))
