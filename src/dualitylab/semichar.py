"""Submultiplicative weights built from a closed constructor grammar.

A weight here is a function f on a group with f >= 1 and
f(x*y) <= f(x) * f(y); the grammar below produces only such functions, so
submultiplicativity holds by construction and the sampled verifier exists for
cross-checks and for user-supplied raw tables.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .groups import DirectProductGroup, Element, GeneratorSet, Group
from .length import LengthReport, UnexploredError, WeightFunction
from .reports import SampledInequality, leq

_REL_TOL = 1e-9


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

    def __add__(self, other):
        return Sum(self, other)

    def __mul__(self, other):
        return Product(self, other)


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


class Diagonal(Semicharacter):
    """Restrict a weight on G x G to the diagonal: x -> f((x, x))."""

    def __init__(self, f: Semicharacter, base: Group):
        if not isinstance(f.group, DirectProductGroup):
            raise ValueError("diagonal needs a weight on a product group")
        if f.group.left is not base or f.group.right is not base:
            raise ValueError("diagonal needs both factors equal to the base group")
        self.f = f
        self.group = base

    def value(self, x) -> float:
        return self.f.value((x, x))


class Box(Semicharacter):
    """The product weight (s, t) -> f(s) * g(t) on G x H."""

    def __init__(self, f: Semicharacter, g: Semicharacter, product: DirectProductGroup):
        if not isinstance(product, DirectProductGroup):
            raise ValueError("box weight needs a product group")
        if f.group is not None and f.group is not product.left:
            raise ValueError("left factor mismatch")
        if g.group is not None and g.group is not product.right:
            raise ValueError("right factor mismatch")
        self.f, self.g = f, g
        self.group = product

    def value(self, x) -> float:
        s, t = self.group.check(x)
        return self.f.value(s) * self.g.value(t)


class TableWeight(Semicharacter):
    """A raw table of values >= 1; submultiplicativity is the caller's claim.

    Use ``sampled_submultiplicativity`` to audit one of these.
    """

    def __init__(self, group: Group, table: dict):
        self.group = group
        self.table = {group.check(x): float(v) for x, v in table.items()}
        for x, v in self.table.items():
            if v < 1.0:
                raise ValueError(f"table value {v} < 1 at {group.format(x)}")

    def value(self, x) -> float:
        x = self.group.check(x)
        try:
            return self.table[x]
        except KeyError:
            raise UnexploredError(f"{self.group.format(x)} not in table") from None


def sampled_submultiplicativity(
    f: Semicharacter,
    elements,
    group: Group | None = None,
    samples: int = 400,
    seed: int = 0,
    rel_tol: float = _REL_TOL,
) -> SampledInequality:
    """Sample pairs from ``elements`` and test f(x*y) <= f(x) f(y).

    Pairs that leave the evaluable region are skipped.  The tolerance absorbs
    float rounding of genuinely tight cases (exp of sums versus products of
    exps).
    """
    group = group or f.group
    if group is None:
        raise ValueError("need a group to multiply in")
    pool = [group.check(x) for x in elements]
    if not pool:
        raise ValueError("empty sample pool")
    rng = random.Random(seed)
    checked = skipped = 0
    violations = []
    for _ in range(samples):
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        try:
            lhs = f.value(group.mul(x, y))
            rhs = f.value(x) * f.value(y)
        except UnexploredError:
            skipped += 1
            continue
        checked += 1
        if not leq(lhs, rhs, rel_tol):
            violations.append((x, y))
    return SampledInequality(checked=checked, skipped=skipped, violations=tuple(violations))


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
    rel_tol: float = _REL_TOL,
) -> tuple[int, tuple[Element, ...]]:
    """Verify f(x) <= exp(length(x)) across the settled region of ``report``.

    Returns (number checked, tuple of violating elements).
    """
    violations = []
    checked = 0
    for x, v in report.final_items():
        checked += 1
        if not leq(f.value(x), math.exp(float(v)), rel_tol):
            violations.append(x)
    return checked, tuple(violations)


_NODES = ("const", "expLength", "sum", "product", "max", "scale", "inverse")


def build_semicharacter(recipe: dict, report: LengthReport) -> Semicharacter:
    """Assemble a weight from a JSON-style recipe tree.

    Leaves: {"kind": "const", "value": C} and {"kind": "expLength"} (the
    latter binds to ``report``).  Nodes: sum/product/max with "args", scale
    with "value" and "arg", inverse with "arg".
    """
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise ValueError(f"recipe must be an object with a 'kind', got {recipe!r}")
    kind = recipe["kind"]
    extra = set(recipe) - {"kind", "value", "arg", "args"}
    if extra:
        raise ValueError(f"unknown recipe keys {sorted(extra)}")
    if kind == "const":
        return Constant(recipe.get("value", 1))
    if kind == "expLength":
        return ExpLength(report)
    if kind in ("sum", "product", "max"):
        args = recipe.get("args")
        if not isinstance(args, list) or len(args) < 2:
            raise ValueError(f"{kind} needs an 'args' list with at least two entries")
        built = [build_semicharacter(a, report) for a in args]
        node = {"sum": Sum, "product": Product, "max": Max}[kind]
        acc = built[0]
        for nxt in built[1:]:
            acc = node(acc, nxt)
        return acc
    if kind == "scale":
        if "arg" not in recipe:
            raise ValueError("scale needs an 'arg'")
        return Scale(recipe.get("value", 1), build_semicharacter(recipe["arg"], report))
    if kind == "inverse":
        if "arg" not in recipe:
            raise ValueError("inverse needs an 'arg'")
        return Inverse(build_semicharacter(recipe["arg"], report), group=report.group)
    raise ValueError(f"unknown recipe kind {kind!r} (expected one of {_NODES})")
