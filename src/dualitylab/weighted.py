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
and keeps the value for the rest of the call.  Each of its five trial sets
first makes, for a block of trials, the generator calls that one trial at a
time would make, in the same order and with the same arguments (a random
vector's coefficients are one numpy draw, which consumes the stream in the
order one draw per support point would), and keeps only the raw draws; then
it evaluates the block on float64 parts.  A block holds at most
``_BLOCK_POINTS`` pair products or region positions per array, so memory grows
with neither the trials nor the region squared.  The seminorm checks draw
their tables a block of trials at a time, one numpy draw per block, which
consumes the stream in the order one draw per table would, and evaluate q on
rows of float64 parts.  In both, |u| is ``np.hypot`` of the parts and u v is
``scalars.times``, CPython's complex product, because numpy's complex ``abs``
and ``*`` round differently; a seminorm is one ``math.fsum`` per vector, which
rounds the exact sum whatever the order of its terms; and a convolution
coefficient adds its pair products in the order ``convolve`` does.  So the
trial suite gives the bits the per-trial code gave.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .groups import Element, Group
from .length import SUMMABILITY_CLOSED_FORM, LengthReport
from .reports import LOOSE_TOL, REL_TOL, CheckResult, fail, fold, leq, leq_array, leq_trials
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
# and the most pair products or region positions one array of a polar trial block holds, so that
# a check's memory does not grow with its trials
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


class _ReadOnce(dict):
    """A weight read at most once per element; values are deterministic, so reads agree."""

    def __init__(self, f: Semicharacter):
        super().__init__()
        self.group, self._read = f.group, f.value

    def __missing__(self, x) -> float:
        v = self[x] = self._read(x)
        return v

    value = dict.__getitem__


def _draw_vector(rng: np.random.Generator, n: int):
    """The draws of a vector on 1 to 6 of n region points: the picked indices, and the real then
    imaginary part of each coefficient from N(0, 1) as a (size, 2) array, in one draw."""
    size = min(int(rng.integers(1, 7)), n)
    return rng.choice(n, size=size, replace=False), rng.normal(0.0, 1.0, size=(size, 2))


def _draw_member(rng: np.random.Generator, n: int):
    """The draws of a random rectangle member on 1 to n region points: the picked indices, and
    each point's radius then angle fraction as a (size, 2) array of uniforms on [0, 1), in one
    draw, in the order uniform(0, margin) then uniform(0, 2 pi) per point would take them."""
    size = int(rng.integers(1, n + 1))
    return rng.choice(n, size=size, replace=False), rng.random(2 * size).reshape(size, 2)


def _fsum_rows(terms: np.ndarray) -> list[float]:
    """``math.fsum`` of each row: a seminorm's exactly rounded sum, whatever the order of its terms."""
    return list(map(math.fsum, terms.tolist()))


def _row_sums(re: np.ndarray, im: np.ndarray):
    """Each row's sum of complex parts, added left to right from 0 as ``sum(..., 0j)`` adds them."""
    sr, si = np.zeros(len(re)), np.zeros(len(re))
    for k in range(re.shape[1]):
        sr, si = sr + re[:, k], si + im[:, k]
    return sr, si


def _rectangle_values(w: np.ndarray, u: np.ndarray, margin):
    """The values w r e^(i theta) of a random rectangle member, with r = margin u[:, 0] and
    theta = 2 pi u[:, 1].  e^(i theta) is (cos theta, sin theta) from libm, one call per angle,
    as ``cmath.exp`` computes it: numpy's vectorised cos and sin need not round the same way."""
    theta = (2.0 * math.pi * u[:, 1]).tolist()
    w = w * (margin * u[:, 0])
    return w * np.array(list(map(math.cos, theta))), w * np.array(list(map(math.sin, theta)))


class _PolarTrials:
    """The five trial sets of one ``weighted_property_trials`` call, on one generator.

    Each set draws a block of trials with the generator calls the per-trial code made, in its
    order, then evaluates the block on float64 arrays.  A block's vectors are (m, 6) rows of
    region indices and coefficient parts; a short row, and a coefficient of 0 (which a vector
    drops), holds the pad index n, whose weight and parts are 0.  Every product of complex
    numbers is ``scalars.times`` and every modulus ``np.hypot``, CPython's bits on parts; a
    product by a real number is one float product per part, which differs from CPython's complex
    product only in the sign of a zero, and no |.|, fsum or comparison below sees that sign.
    """

    def __init__(self, f, g, region, group, rng, trials):
        self.f, self.g, self.region, self.group, self.rng, self.trials = f, g, region, group, rng, trials
        self.n = n = len(region)
        self.fr = self.weights(f)
        # a trial puts at most 36 pair products, or a row of n + 1 positions, in one of a block's
        # arrays
        self.step = max(1, _BLOCK_POINTS // max(36, n + 1))

    def weights(self, f) -> np.ndarray:
        """f at each region index, and 0 at the pad index n."""
        return np.array([f.value(x) for x in self.region] + [0.0], dtype=float)

    def blocks(self, draw):
        """``draw()`` once per trial, in trial order, as (list of draws, first trial) per block."""
        for start in range(0, self.trials, self.step):
            yield [draw() for _ in range(min(self.step, self.trials - start))], start

    def rows(self, vectors):
        """A block's drawn vectors as (m, 6) arrays: region indices, real parts, imaginary parts."""
        n, m = self.n, len(vectors)
        picks, parts = np.full((m, 6), n), np.zeros((m, 6, 2))
        filled = np.arange(6) < np.array([len(p) for p, _ in vectors])[:, None]
        picks[filled] = np.concatenate([p for p, _ in vectors])
        parts[filled] = np.concatenate([c for _, c in vectors])
        re, im = parts[..., 0], parts[..., 1]
        picks[(re == 0) & (im == 0)] = n
        return picks, re, im

    def find(self, picks: np.ndarray, drawn) -> np.ndarray:
        """The position of each entry of ``picks`` in the concatenation of ``drawn``, one index
        array per row, or -1 where its row did not draw it.  The lookup table is (m, n + 1)."""
        m = len(drawn)
        sizes = [len(d) for d in drawn]
        at = np.full((m, self.n + 1), -1)
        at[np.repeat(np.arange(m), sizes), np.concatenate(drawn)] = np.arange(sum(sizes))
        return at[np.arange(m)[:, None], picks]

    def witness(self, i: int, picks: np.ndarray) -> str:
        support = sorted(self.region[p] for p in picks.tolist() if p < self.n)
        return f"trial {i}: support " + " ".join(map(self.group.format, support))

    def convolution(self):
        """(q_f(alpha * beta), q_f(alpha) q_f(beta)) per trial."""
        rng, n, region, f, fr = self.rng, self.n, self.region, self.f, self.fr
        for block, _ in self.blocks(lambda: (_draw_vector(rng, n), _draw_vector(rng, n))):
            (pa, ra, ia), (pb, rb, ib) = map(self.rows, zip(*block))
            m = len(block)
            # a trial's 36 pairs, alpha's point major and beta's minor as convolve takes them: the
            # block lists the pairs of two drawn points a pair column at a time, every trial's
            # first pair first
            drawn = ((pa < n)[:, :, None] & (pb < n)[:, None, :]).reshape(m, 36).T.ravel()

            def listed(cells):
                return cells.reshape(m, 36).T.ravel()[drawn]

            row = listed(np.repeat(np.arange(m), 36))
            pr, pi = map(listed, times((ra[:, :, None], ia[:, :, None]), (rb[:, None, :], ib[:, None, :])))
            pairs, pair_of = np.unique(listed(pa[:, :, None] * n + pb[:, None, :]), return_inverse=True)
            # one group.mul per distinct pair of the block, and an id per distinct product
            ids: dict = {}
            mul = self.group.mul
            product = np.array([ids.setdefault(mul(region[i], region[j]), len(ids))
                                for i, j in zip(*(k.tolist() for k in np.divmod(pairs, n)))], dtype=np.intp)
            span = len(ids)
            # the product elements of each trial, in trial order: a trial's coefficient at one is the
            # products of its pairs added in pair order from 0, as convolve adds them, because
            # bincount adds its weights in input order
            elements, slot = np.unique(row * span + product[pair_of], return_inverse=True)
            modulus = np.hypot(np.bincount(slot, pr, len(elements)), np.bincount(slot, pi, len(elements)))
            terms = (modulus * np.array([f.value(z) for z in ids], dtype=float)[elements % span]).tolist()
            ends = np.searchsorted(elements, np.arange(1, m + 1) * span).tolist()
            lhs = [math.fsum(terms[s:e]) for s, e in zip([0, *ends], ends)]
            norms_a = _fsum_rows(np.hypot(ra, ia) * fr[pa])
            norms_b = _fsum_rows(np.hypot(rb, ib) * fr[pb])
            yield from zip(lhs, (a * b for a, b in zip(norms_a, norms_b)))

    def projection(self):
        """(q_f of alpha on a random subset of the region, q_f(alpha)) per trial."""
        rng, n = self.rng, self.n

        def draw():
            alpha = _draw_vector(rng, n)
            return alpha, rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)

        for block, _ in self.blocks(draw):
            alphas, keeps = zip(*block)
            picks, re, im = self.rows(alphas)
            terms = np.hypot(re, im) * self.fr[picks]
            kept = np.where(self.find(picks, keeps) >= 0, terms, 0.0)
            yield from zip(_fsum_rows(kept), _fsum_rows(terms))

    def extremizer(self):
        """(ok, relative error, tag) per trial: the extremizer pairs to q_f(alpha), and a random
        rectangle member to at most that."""
        rng, n, fr = self.rng, self.n, self.fr
        for block, start in self.blocks(lambda: (_draw_vector(rng, n), _draw_member(rng, n))):
            alphas, members = zip(*block)
            picks, re, im = self.rows(alphas)
            w, modulus = fr[picks], np.hypot(re, im)
            target = np.array(_fsum_rows(modulus * w))
            # the extremizer's value at x is f(x) conj(c) / |c|
            unit = np.where(picks < n, modulus, 1.0)
            vr, vi = _row_sums(*times((re, im), (w * (re / unit), w * (-im / unit))))
            rel = np.hypot(vr - target, vi) / np.maximum(target, 1.0)
            at = self.find(picks, [p for p, _ in members])
            found = at >= 0
            mr, mi = np.zeros_like(re), np.zeros_like(im)
            u = np.concatenate([u for _, u in members])
            mr[found], mi[found] = _rectangle_values(w[found], u[at[found]], 1.0)
            ok = (rel <= REL_TOL) & leq_array(np.hypot(*_row_sums(*times((re, im), (mr, mi)))), target)
            for i, (good, r) in enumerate(zip(ok.tolist(), rel.tolist()), start):
                yield good, r, "" if good else self.witness(i, picks[i - start])

    def bipolar(self) -> int:
        """The number of trials whose pointwise and pairing bipolar verdicts on a random table agree.

        The pairing route takes the worst |pairing| over alpha scaled into the polar and, at each
        table point x with value v != 0, the single-point polar member conj(v) / |v| / f(x).
        """
        rng, n, fr = self.rng, self.n, self.fr

        def draw():
            margin = 0.5 if rng.uniform() < 0.5 else 1.5
            table = _draw_member(rng, n)
            _draw_vector(rng, n)  # the zero member, which pairs to 0: only its draws count
            return margin, table, _draw_vector(rng, n)

        agreed = 0
        for block, _ in self.blocks(draw):
            margins, tables, alphas = zip(*block)
            sizes = [len(p) for p, _ in tables]
            points = np.concatenate([p for p, _ in tables])
            ft = fr[points]
            vr, vi = _rectangle_values(ft, np.concatenate([u for _, u in tables]),
                                       np.repeat(margins, sizes))
            modulus = np.hypot(vr, vi)
            starts = np.cumsum([0, *sizes[:-1]])
            pointwise = np.logical_and.reduceat(leq_array(modulus, ft), starts)
            live = (vr != 0) | (vi != 0)
            unit, wt = np.where(live, modulus, 1.0), np.where(live, ft, 1.0)
            single = np.hypot(*times(((vr / unit) / wt, (-vi / unit) / wt), (vr, vi)))
            # a NaN never replaces the running worst of 0 or more, as in max(worst, x)
            worst = np.fmax(np.fmax.reduceat(np.where(live, single, 0.0), starts), 0.0)
            picks, re, im = self.rows(alphas)
            w = fr[picks]
            norm = np.array(_fsum_rows(np.hypot(re, im) * w))
            member = norm > 0
            scale = 1.0 / (np.where(member, norm, 1.0) * (1.0 + 1e-9))
            member &= scale != 0  # alpha scaled by 0 is the zero vector
            sr, si = (np.where(picks < n, part * scale[:, None], 0.0) for part in (re, im))
            if not leq_array(np.array(_fsum_rows(np.hypot(sr, si) * w))[member], 1.0).all():
                raise ValueError("audit members must lie in the polar")
            at = self.find(picks, [p for p, _ in tables])
            found = at >= 0
            tr, ti = np.where(found, vr[at], 0.0), np.where(found, vi[at], 0.0)
            paired = np.hypot(*_row_sums(*times((sr, si), (tr, ti))))
            worst = np.where(member, np.fmax(worst, paired), worst)
            agreed += int(np.count_nonzero(pointwise == leq_array(worst, 1.0)))
        return agreed

    def decomposition(self):
        """(ok, residual, tag) per trial: alpha, scaled to a random min-weighted seminorm, splits
        into rectangle-polar members of f and g as ``absconv_decompose`` splits it."""
        rng, n, fr, gr = self.rng, self.n, self.fr, self.weights(self.g)
        least = [min(a, b) for a, b in zip(fr.tolist(), gr.tolist())]

        def draw():
            picks, parts = _draw_vector(rng, n)
            # abs of a complex is libm's hypot, as np.hypot is, where math.hypot rounds its own way
            coeffs = parts.ravel().view(np.complex128).tolist()
            norm = math.fsum([least[i] * abs(c) for i, c in zip(picks.tolist(), coeffs) if c])
            # a vector of min-weighted seminorm 0 is skipped before its target is drawn
            return (picks, parts), norm, float(rng.uniform(0.2, 1.2)) if norm != 0.0 else 0.0

        for block, start in self.blocks(draw):
            vectors, norm, target = zip(*block)
            picks, re, im = self.rows(vectors)
            drawn = np.array(norm) != 0.0
            factor = (np.array(target) / np.where(drawn, norm, 1.0))[:, None]
            ar, ai = (np.where(picks < n, part * factor, 0.0) for part in (re, im))
            modulus = np.hypot(ar, ai)
            wf, wg = fr[picks], gr[picks]
            on_f = wf <= wg
            a = np.array(_fsum_rows(np.where(on_f, modulus * wf, 0.0)))
            b = np.array(_fsum_rows(np.where(on_f, 0.0, modulus * wg)))
            feasible = leq_array(a + b, 1.0)
            # min(1.0, max(0.0, lam)), where a NaN lam gives 0 as max does
            lam = np.fmin(1.0, np.fmax(0.0, 0.5 * (1.0 + a - b)))
            beta = on_f & (lam > 0)[:, None]
            gamma = ~on_f & (lam < 1)[:, None]
            up_b = (1.0 / np.where(lam > 0, lam, 1.0))[:, None]
            up_g = (1.0 / np.where(lam < 1, 1.0 - lam, 1.0))[:, None]
            br, bi = (np.where(beta, part * up_b, 0.0) for part in (ar, ai))
            gr_, gi = (np.where(gamma, part * up_g, 0.0) for part in (ar, ai))
            # the recombination lam beta + (1 - lam) gamma, against alpha
            down_b, down_g = lam[:, None], (1.0 - lam)[:, None]
            rr = np.where(beta, br * down_b, np.where(gamma, gr_ * down_g, 0.0))
            ri = np.where(beta, bi * down_b, np.where(gamma, gi * down_g, 0.0))
            diff = np.hypot(rr - ar, ri - ai).max(axis=1)
            # lam is clamped to [0, 1], so verify's 0 <= lam <= 1 holds
            sound = (
                ~(diff > REL_TOL * np.maximum(1.0, modulus.max(axis=1)))
                & leq_array(np.array(_fsum_rows(np.hypot(br, bi) * wf)), 1.0)
                & leq_array(np.array(_fsum_rows(np.hypot(gr_, gi) * wg)), 1.0)
            )
            ok = ~drawn | ~feasible | sound
            residual = np.where(drawn & feasible, diff, 0.0)
            for i, (good, r) in enumerate(zip(ok.tolist(), residual.tolist()), start):
                yield good, r, "" if good else self.witness(i, picks[i - start])


def weighted_property_trials(
    f: Semicharacter,
    g: Semicharacter,
    region: list[Element],
    group: Group | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> list[CheckResult]:
    """Seeded randomized audit of the convolution-seminorm toolkit.

    The caller guarantees that f and g are evaluable at the region's
    elements and f at their products (sample supports from a half-radius
    ball): f is read at every region element when the call starts, and g
    when the decomposition trials start, whatever the trials draw.  A
    region that is empty or lists an element twice is refused.  Vectors
    live over ``group``, which defaults to f's group.  Five properties are
    exercised per trial set; each reports its worst margin.
    """
    group = group or f.group
    if group is None:
        raise ValueError("need a group to multiply in")
    if not region:
        raise ValueError("empty region: the trials draw every support from it")
    rng = np.random.default_rng(seed)
    region = [group.check(x) for x in region]
    if len(set(region)) < len(region):
        raise ValueError("region must list distinct elements: the trials draw region positions")
    # every element read below is a region element or a product of two, already canonical
    suite = _PolarTrials(_ReadOnce(f), _ReadOnce(g), region, group, rng, trials)
    results = [
        leq_trials("convolution-submultiplicative", trials, suite.convolution().__next__, LOOSE_TOL),
        leq_trials("projection-contraction", trials, suite.projection().__next__, REL_TOL),
        fold("extremizer-optimal", suite.extremizer()),
    ]
    agreed = suite.bipolar()
    results.append(CheckResult("bipolar-agreement", agreed == trials, detail=f"{agreed}/{trials} agreed"))
    results.append(fold("decomposition-sound", suite.decomposition()))
    return results
