"""Finitely supported convolution vectors, weighted seminorms, polar certificates.

Coefficients are complex doubles and every seminorm value is a real double,
whatever scalar backend the Hopf layer uses; comparisons therefore run through
``reports.leq`` at ``REL_TOL`` (1e-12), except the
convolution-submultiplicativity trial, which allows ``LOOSE_TOL`` (1e-9).
Each sampled lhs <= rhs trial set is one ``reports.leq_trials`` fold: it
passes when every draw holds and reports the worst lhs - rhs, floored at 0.
The extremizer and decomposition trials fold their per-trial outcomes
through ``reports.fold`` the same way.  A failing row's detail names its
first failing trial: the pair for an inequality, the drawn support for the
extremizer and decomposition trials.
Weights come from the semicharacter grammar, so submultiplicativity of the
underlying weight is available by construction.

Each ``weighted_property_trials`` call reads every weight once per element
and keeps the value for the rest of the call.  Each random vector takes all
its coefficients from one numpy draw, which consumes the stream in the order
one draw per support point would, so a seed gives the same values.  The
seminorm checks draw their tables a block of trials at a time, one numpy draw
per block, which consumes the stream in the order one draw per table would,
and evaluate q on rows of float64 parts: |u| is ``np.hypot`` of the parts and
u v is ``scalars.times``, CPython's complex product, because numpy's complex
``abs`` and ``*`` round differently.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .groups import Element, Group
from .length import SUMMABILITY_CLOSED_FORM, LengthReport
from .reports import LOOSE_TOL, REL_TOL, CheckResult, fail, fold, leq, leq_trials
from .scalars import times
from .semichar import Semicharacter


@dataclass(frozen=True)
class WeightedVector:
    """A finitely supported vector over a group; zero coefficients are dropped."""

    group: Group
    coeffs: Mapping[Element, complex]

    @classmethod
    def from_items(cls, group: Group, items) -> "WeightedVector":
        acc: dict[Element, complex] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for x, c in pairs:
            x = group.check(x)
            c = complex(c)
            if c != 0:
                acc[x] = acc.get(x, 0j) + c
        return cls(group=group, coeffs={x: c for x, c in acc.items() if c != 0})

    @classmethod
    def zero(cls, group: Group) -> "WeightedVector":
        return cls(group=group, coeffs={})

    @property
    def support(self) -> tuple[Element, ...]:
        return tuple(sorted(self.coeffs))

    def __add__(self, other: "WeightedVector") -> "WeightedVector":
        if other.group is not self.group:
            raise ValueError("vectors live over different groups")
        acc = dict(self.coeffs)
        for x, c in other.coeffs.items():
            acc[x] = acc.get(x, 0j) + c
        return WeightedVector(self.group, {x: c for x, c in acc.items() if c != 0})

    def scaled(self, c) -> "WeightedVector":
        c = complex(c)
        if c == 0:
            return WeightedVector.zero(self.group)
        return WeightedVector(self.group, {x: v * c for x, v in self.coeffs.items()})

    def max_abs_diff(self, other: "WeightedVector") -> float:
        keys = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coeffs.get(k, 0j) - other.coeffs.get(k, 0j)) for k in keys), default=0.0)


def seminorm(alpha: WeightedVector, f: Semicharacter) -> float:
    """The weighted absolute-sum seminorm: sum of |coefficient| * weight."""
    return math.fsum(abs(c) * f.value(x) for x, c in alpha.coeffs.items())


def convolve(alpha: WeightedVector, beta: WeightedVector) -> WeightedVector:
    """Group convolution: coefficients multiply along the group law."""
    if alpha.group is not beta.group:
        raise ValueError("vectors live over different groups")
    g = alpha.group
    acc: dict[Element, complex] = {}
    for x, a in alpha.coeffs.items():
        for y, b in beta.coeffs.items():
            z = g.mul(x, y)
            acc[z] = acc.get(z, 0j) + a * b
    return WeightedVector(g, {x: c for x, c in acc.items() if c != 0})


def pairing(alpha: WeightedVector, table: Mapping[Element, complex]) -> complex:
    """Bilinear pairing with a function table: sum of coefficient * value."""
    return sum((c * complex(table.get(x, 0j)) for x, c in alpha.coeffs.items()), 0j)


def dual_norm_extremizer(alpha: WeightedVector, f: Semicharacter) -> dict[Element, complex]:
    """The rectangle member pairing to exactly the seminorm of alpha.

    At each support point the value is the weight times the unit phase of the
    conjugated coefficient, so the pairing telescopes to |c| * f pointwise.
    """
    out: dict[Element, complex] = {}
    for x, c in alpha.coeffs.items():
        out[x] = f.value(x) * (c.conjugate() / abs(c))
    return out


def rectangle_polar_contains(alpha: WeightedVector, f: Semicharacter) -> bool:
    """Membership of alpha in the polar of the rectangle of f: seminorm <= 1."""
    return leq(seminorm(alpha, f), 1.0)


def rectangle_bipolar_contains(table: Mapping[Element, complex], f: Semicharacter) -> bool:
    """Membership of a table in the bipolar: pointwise |value| <= weight."""
    return all(leq(abs(complex(v)), f.value(x)) for x, v in table.items())


def _bipolar_pairing_audit(table, f, members) -> tuple[bool, bool, float]:
    """Compare the pointwise bipolar test against the pairing route.

    The table's points are checked elements.  Returns (pointwise verdict,
    pairing verdict, worst pairing magnitude).  The pairing route tests the
    sampled polar members plus, for every support point, the single-point
    polar member that exposes any pointwise excess; the two verdicts must
    agree.  The single-point member at x is c 1_x with c = phase / f(x), and
    pairs to c * table[x], so it needs no vector.
    """
    pointwise = rectangle_bipolar_contains(table, f)
    worst = 0.0
    for alpha in members:
        if not rectangle_polar_contains(alpha, f):
            raise ValueError("audit members must lie in the polar")
        worst = max(worst, abs(pairing(alpha, table)))
    for x, v in table.items():
        v = complex(v)
        if v == 0:
            continue
        c = v.conjugate() / abs(v) / f.value(x)
        worst = max(worst, abs(c * v))
    return pointwise, leq(worst, 1.0), worst


def random_rectangle_member(
    f: Semicharacter,
    region: list[Element],
    rng: np.random.Generator,
    margin: float = 1.0,
) -> dict[Element, complex]:
    """A random table with |value| <= margin * weight on a random subregion."""
    size = int(rng.integers(1, len(region) + 1))
    picks = rng.choice(len(region), size=size, replace=False).tolist()
    # one draw for the (radius, angle) pairs, in the order uniform(0, margin)
    # then uniform(0, 2 pi) per point would consume them
    u = rng.random(2 * size)
    radii = (margin * u[0::2]).tolist()
    angles = (2.0 * math.pi * u[1::2]).tolist()
    out: dict[Element, complex] = {}
    for i, r, theta in zip(picks, radii, angles):
        x = region[i]
        out[x] = f.value(x) * r * cmath.exp(1j * theta)
    return out


@dataclass(frozen=True)
class Decomposition:
    """Certificate for membership in the polar of a rectangle intersection."""

    feasible: bool
    min_norm: float
    lam: float = 0.0
    beta: WeightedVector | None = None
    gamma: WeightedVector | None = None

    @cached_property
    def recombined(self) -> WeightedVector:
        """lam beta + (1 - lam) gamma, which a feasible certificate claims is alpha."""
        return self.beta.scaled(self.lam) + self.gamma.scaled(1.0 - self.lam)

    def verify(self, alpha: WeightedVector, f: Semicharacter, g: Semicharacter) -> bool:
        if not self.feasible:
            return not leq(self.min_norm, 1.0)
        if self.recombined.max_abs_diff(alpha) > REL_TOL * max(1.0, *(abs(c) for c in alpha.coeffs.values()), 0.0):
            return False
        return (
            0.0 <= self.lam <= 1.0
            and leq(seminorm(self.beta, f), 1.0)
            and leq(seminorm(self.gamma, g), 1.0)
        )


def absconv_decompose(alpha: WeightedVector, f: Semicharacter, g: Semicharacter) -> Decomposition:
    """Split alpha into rectangle-polar members of f and g.

    The pointwise minimum of two submultiplicative weights has the rectangle
    of the intersection, so alpha lies in its polar exactly when the
    min-weighted seminorm is at most one; in that case splitting the support
    by which weight attains the minimum yields the convex certificate.  When
    the min-weighted seminorm exceeds one the result is marked infeasible.
    """
    parts_f: dict[Element, complex] = {}
    parts_g: dict[Element, complex] = {}
    for x, c in alpha.coeffs.items():
        if f.value(x) <= g.value(x):
            parts_f[x] = c
        else:
            parts_g[x] = c
    vf = WeightedVector(alpha.group, parts_f)
    vg = WeightedVector(alpha.group, parts_g)
    a = seminorm(vf, f)
    b = seminorm(vg, g)
    total = a + b
    if not leq(total, 1.0):
        return Decomposition(feasible=False, min_norm=total)
    lam = 0.5 * (1.0 + a - b)
    lam = min(1.0, max(0.0, lam))
    beta = vf.scaled(1.0 / lam) if lam > 0 else WeightedVector.zero(alpha.group)
    gamma = vg.scaled(1.0 / (1.0 - lam)) if lam < 1 else WeightedVector.zero(alpha.group)
    return Decomposition(feasible=True, min_norm=total, lam=lam, beta=beta, gamma=gamma)


# ---------------------------------------------------------------------------
# max-type seminorms with finite support


@dataclass(frozen=True)
class SubmultiplicativeSeminorm:
    """q(u) = scale * max over the support of weight * |u|.

    With scale >= 1 and weights >= 1 the seminorm is submultiplicative for
    pointwise products and each indicator gets q(1_x) = scale * weight(x) >= 1,
    consistent with idempotence of indicators.
    """

    support: tuple[Element, ...]
    weights: Mapping[Element, float]
    scale: float = 1.0

    def __post_init__(self):
        if not self.support:
            raise ValueError("support must be non-empty")
        if len(set(self.support)) < len(self.support):
            raise ValueError("support must list distinct elements")
        if self.scale < 1.0:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        for x in self.support:
            w = self.weights.get(x)
            if w is None:
                raise ValueError(f"missing weight at {x!r}")
            if w < 1.0:
                raise ValueError(f"weight {w} < 1 at {x!r}")

    def __call__(self, table: Mapping[Element, complex]) -> float:
        best = 0.0
        for x in self.support:
            v = abs(complex(table.get(x, 0j)))
            best = max(best, self.weights[x] * v)
        return self.scale * best

    def indicator_value(self, x) -> float:
        if x not in self.weights or x not in self.support:
            return 0.0
        return self.scale * self.weights[x]


# the most support points one block of a seminorm check's tables holds, 64 KiB of float64 parts,
# so that a check's memory does not grow with its trials
_BLOCK_POINTS = 1 << 12


def _table_blocks(q: SubmultiplicativeSeminorm, rng: np.random.Generator, trials: int, per_trial: int):
    """The real and imaginary parts of ``per_trial`` tables on q's support for each of ``trials``
    trials, as (m, per_trial, k) arrays for each block of m trials.

    A block is one draw of (m, per_trial, k, 2) values from N(0, 2^2), in C order: real then
    imaginary part of each point, points in support order, tables in trial order, which is the
    order one draw per table would take them in.
    """
    k = len(q.support)
    step = max(1, _BLOCK_POINTS // (per_trial * k))
    for start in range(0, trials, step):
        parts = rng.normal(0.0, 2.0, size=(min(step, trials - start), per_trial, k, 2))
        yield parts[..., 0], parts[..., 1]


def _q_rows(q: SubmultiplicativeSeminorm, modulus: np.ndarray) -> np.ndarray:
    """q of each row of an (m, k) array of |u| in support order, with the bits of ``q(u)``."""
    weights = np.array([q.weights[x] for x in q.support], dtype=float)
    return float(q.scale) * (weights * modulus).max(axis=1)


def seminorm_support_check(
    q: SubmultiplicativeSeminorm,
    rng: np.random.Generator,
    trials: int = 200,
) -> list[CheckResult]:
    """Audit support, indicator lower bounds, and sampled submultiplicativity."""
    results = []
    ok = all(q.indicator_value(x) >= 1.0 for x in q.support)
    worst = min((q.indicator_value(x) for x in q.support), default=1.0)
    results.append(CheckResult(name="indicator-floor", passed=ok, residual=float(1.0 - min(worst, 1.0))))
    # idempotent indicators force q(1_x) <= q(1_x)^2
    ok = all(leq(q.indicator_value(x), q.indicator_value(x) ** 2) for x in q.support)
    results.append(CheckResult(name="idempotent-consistency", passed=ok))

    def pairs():
        for re, im in _table_blocks(q, rng, trials, 2):
            u, v = (re[:, 0], im[:, 0]), (re[:, 1], im[:, 1])
            lhs = _q_rows(q, np.hypot(*times(u, v)))
            rhs = _q_rows(q, np.hypot(*u)) * _q_rows(q, np.hypot(*v))
            yield from zip(lhs.tolist(), rhs.tolist())

    results.append(leq_trials("submultiplicative", trials, pairs().__next__, REL_TOL))
    return results


def domination_check(
    q: SubmultiplicativeSeminorm,
    rng: np.random.Generator,
    trials: int = 200,
) -> CheckResult:
    """q(u) <= (sum of indicator values) * sup |u| on the support, sampled."""
    total = math.fsum(q.indicator_value(x) for x in q.support)

    def pairs():
        for re, im in _table_blocks(q, rng, trials, 1):
            modulus = np.hypot(re[:, 0], im[:, 0])
            yield from zip(_q_rows(q, modulus).tolist(), (total * modulus.max(axis=1)).tolist())

    return leq_trials("domination", trials, pairs().__next__, REL_TOL)


def summability_check(
    q: SubmultiplicativeSeminorm,
    f: Semicharacter,
    report: LengthReport,
) -> CheckResult:
    """Weighted mass of the support against the enveloped tail bound.

    Writes f(x) q(1_x) = [f(x) exp(len x) q(1_x)] exp(-len x) pointwise, takes
    B as the sup of the bracket over the support, and checks the summed mass
    against B times the partial sums of exp(-len) over the settled ball.
    """
    mass = 0.0
    envelope = 0.0
    for x in q.support:
        ell = float(report.final_length(x))
        term = f.value(x) * q.indicator_value(x)
        mass += term
        envelope = max(envelope, term * math.exp(ell))
    partial = report.exp_length_sum()
    bound = envelope * partial
    detail = f"mass {mass:.6g} envelope {envelope:.6g} partial {partial:.6g}"
    if not math.isfinite(bound):
        # an infinite bound would hold whatever the mass
        return CheckResult("summability", False, detail=f"{detail}: envelope x partial overflows a double")
    return CheckResult(
        name="summability",
        passed=leq(mass, bound),
        residual=max(mass - bound, 0.0),
        detail=detail,
    )


def require_summability_radius(radius, indicator_bound: float) -> None:
    """ConfigError at "" unless ``summability_check`` with f = ``ExpLength`` decides on finite
    numbers for every seminorm whose indicator values q(1_x) stay below indicator_bound, on a ball
    of this radius explored under injective integer weights.  The check multiplies its envelope,
    at most indicator_bound exp(2 radius), by its partial sum, at most
    ``SUMMABILITY_CLOSED_FORM``, so the largest radius is where that product reaches DBL_MAX."""
    limit = (math.log(sys.float_info.max) - math.log(indicator_bound * SUMMABILITY_CLOSED_FORM)) / 2
    if radius > limit:
        fail("", f"must be at most {limit:.6f}, past which the summability envelope times its partial "
                 f"sum overflows a double, got {radius}")


# ---------------------------------------------------------------------------
# randomized property suites (shared by tests and the command line)


class MinWeight:
    """Pointwise minimum of two weights, for the intersection rectangle.

    Not a semicharacter: minima of submultiplicative weights need not stay
    submultiplicative, but the seminorm only reads pointwise values.
    """

    def __init__(self, f: Semicharacter, g: Semicharacter):
        self.f, self.g = f, g
        self.group = f.group or g.group

    def value(self, x) -> float:
        return min(self.f.value(x), self.g.value(x))


class _ReadOnce(dict):
    """A weight read at most once per element; values are deterministic, so reads agree."""

    def __init__(self, f: Semicharacter):
        super().__init__()
        self.group, self._read = f.group, f.value

    def __missing__(self, x) -> float:
        v = self[x] = self._read(x)
        return v

    value = dict.__getitem__


def _random_vector(group, region, rng: np.random.Generator) -> WeightedVector:
    """A vector on 1 to 6 points of ``region`` with standard normal coefficients.

    ``region`` holds checked elements, so the vector is built without checking them again.
    """
    size = min(int(rng.integers(1, 7)), len(region))
    picks = rng.choice(len(region), size=size, replace=False).tolist()
    # real then imaginary part of each coefficient from N(0, 1), in one draw
    coeffs = rng.normal(0.0, 1.0, size=(size, 2)).view(np.complex128).ravel().tolist()
    return WeightedVector(group, {region[i]: c for i, c in zip(picks, coeffs) if c != 0})


def weighted_property_trials(
    f: Semicharacter,
    g: Semicharacter,
    region: list[Element],
    group: Group | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> list[CheckResult]:
    """Seeded randomized audit of the convolution-seminorm toolkit.

    The caller guarantees that products of region elements stay evaluable
    under f (sample supports from a half-radius ball).  Vectors live over
    ``group``, which defaults to f's group.  Five properties are exercised per
    trial set; each reports its worst margin.
    """
    group = group or f.group
    if group is None:
        raise ValueError("need a group to multiply in")
    rng = np.random.default_rng(seed)
    region = [group.check(x) for x in region]
    # every element read below is a region element or a product of two, already canonical
    f, g = _ReadOnce(f), _ReadOnce(g)

    def draw_convolution():
        alpha = _random_vector(group, region, rng)
        beta = _random_vector(group, region, rng)
        return seminorm(convolve(alpha, beta), f), seminorm(alpha, f) * seminorm(beta, f)

    def draw_projection():
        alpha = _random_vector(group, region, rng)
        size = int(rng.integers(0, len(region) + 1))
        keep = {region[int(i)] for i in rng.choice(len(region), size=size, replace=False)}
        # keep holds region elements, which were checked on entry
        kept = WeightedVector(group, {x: c for x, c in alpha.coeffs.items() if x in keep})
        return seminorm(kept, f), seminorm(alpha, f)

    def witness(i, alpha):
        return f"trial {i}: support " + " ".join(map(group.format, alpha.support))

    def draw_extremizer(i):
        alpha = _random_vector(group, region, rng)
        value = pairing(alpha, dual_norm_extremizer(alpha, f))
        target = seminorm(alpha, f)
        rel = abs(value - target) / max(target, 1.0)
        member = random_rectangle_member(f, region, rng)
        ok = rel <= REL_TOL and leq(abs(pairing(alpha, member)), target)
        return ok, rel, "" if ok else witness(i, alpha)

    def draw_bipolar():
        margin = 0.5 if rng.uniform() < 0.5 else 1.5
        table = random_rectangle_member(f, region, rng, margin=margin)
        members = [_random_vector(group, region, rng).scaled(0.0)]  # zero member
        alpha = _random_vector(group, region, rng)
        n = seminorm(alpha, f)
        if n > 0:
            members.append(alpha.scaled(1.0 / (n * (1.0 + 1e-9))))
        pointwise, paired, _ = _bipolar_pairing_audit(table, f, members)
        return pointwise == paired

    def draw_decomposition(i):
        alpha = _random_vector(group, region, rng)
        norm = seminorm(alpha, MinWeight(f, g))
        if norm == 0.0:
            return True, 0.0, ""
        target = float(rng.uniform(0.2, 1.2))
        alpha = alpha.scaled(target / norm)
        dec = absconv_decompose(alpha, f, g)
        sound = dec.feasible == leq(dec.min_norm, 1.0) and dec.verify(alpha, f, g)
        tag = "" if sound else witness(i, alpha)
        if not dec.feasible:
            return sound, 0.0, tag
        return sound, dec.recombined.max_abs_diff(alpha), tag

    results = [
        leq_trials("convolution-submultiplicative", trials, draw_convolution, LOOSE_TOL),
        leq_trials("projection-contraction", trials, draw_projection, REL_TOL),
        fold("extremizer-optimal", map(draw_extremizer, range(trials))),
    ]
    agreed = [draw_bipolar() for _ in range(trials)]
    results.append(CheckResult("bipolar-agreement", all(agreed), detail=f"{sum(agreed)}/{trials} agreed"))
    results.append(fold("decomposition-sound", map(draw_decomposition, range(trials))))
    return results
