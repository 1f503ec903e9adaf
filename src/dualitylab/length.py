"""Weighted word lengths on Cayley graphs and the counting bounds they support.

The central object is a truncated length table: a uniform-cost search from the
identity assigns each reachable element the cheapest total generator weight
that produces it.  Weights are exact rationals; the search runs on integers
after clearing denominators, so priority ordering never suffers float ties.
It settles the ball one integer cost level at a time (Dial's buckets, "Algorithm
360", CACM 1969, with a heap over the distinct pending costs so that sparse
costs such as weights 1 and 10^9 skip the empty levels).  A level opens as one
sorted list, is cut by the element cap as a slice, and is expanded one
generator at a time over all its elements; a step whose cost would pass the
radius makes no product.  Every element of a level shares that level's one
``Fraction``, so ``spheres`` and ``summability_partial_sums`` do one dict
lookup or one ``exp`` per level, not per element.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .groups import Element, GeneratorSet, Group, require
from .reports import SampledInequality, fail, leq, sample_pairs

DEFAULT_RADIUS = Fraction(14)
DEFAULT_ELEMENT_CAP = 10**6

# base ratio of the geometric series behind the summability bounds
SERIES_RATIO = 2.0 / math.e
# the sum of exp(-length) over a whole group under injective integer weights is at most this:
# the level-n sphere holds at most 2^(n-1) elements
SUMMABILITY_CLOSED_FORM = 1.0 + SERIES_RATIO / (2.0 * (1.0 - SERIES_RATIO))


class UnexploredError(LookupError):
    """Raised when a value is requested outside the settled search region."""


@dataclass(frozen=True)
class WeightFunction:
    """Positive rational weights, one per generator (index-aligned)."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        for w in self.values:
            if w < 0:
                raise ValueError(f"weight {w} is negative")

    @classmethod
    def constant(cls, count: int) -> "WeightFunction":
        """Weight 1 on every generator: the plain word length."""
        return cls((Fraction(1),) * count)

    @classmethod
    def enumerated(cls, count: int) -> "WeightFunction":
        """Weight k on the k-th generator (1-based): the canonical injective mode."""
        return cls(tuple(Fraction(k) for k in range(1, count + 1)))

    @staticmethod
    def require_count(values: Sequence, count: int) -> None:
        """One weight per generator; ConfigError at "" unless ``values`` holds ``count``."""
        if len(values) != count:
            fail("", f"expected {count} weights (one per generator), got {len(values)}")

    def require_integer(self) -> None:
        """Integer base weights, which the nuclearity witness needs; ConfigError at "" otherwise."""
        if not self.is_integer:
            fail("", "nuclearity needs integer base weights")

    @property
    def is_integer(self) -> bool:
        return all(w.denominator == 1 for w in self.values)

    @property
    def is_injective_integer(self) -> bool:
        """Distinct positive integer weights: what the sphere bound requires."""
        if not self.is_integer:
            return False
        ints = [int(w) for w in self.values]
        return all(v >= 1 for v in ints) and len(set(ints)) == len(ints)

    def shifted_by_index(self) -> "WeightFunction":
        """The companion weights w_k + k used by the nuclearity witness."""
        return WeightFunction(tuple(w + k for k, w in enumerate(self.values, start=1)))


@dataclass
class LengthReport:
    """Result of one ball exploration.

    ``lengths`` maps each settled element to its exact length, in (length,
    element) order; from ``explore_ball`` all elements of one level hold the
    same ``Fraction`` object.  ``boundary`` is the cheapest cost left
    unexpanded when the search stopped; a recorded value is final exactly
    when it lies strictly below it.  ``boundary`` is None when the frontier drained completely, in
    which case everything recorded is final and every sphere up to the radius
    is complete.
    """

    group: Group
    generators: GeneratorSet
    weights: WeightFunction
    radius: Fraction
    lengths: dict[Element, Fraction]
    truncated: bool
    boundary: Fraction | None

    def __contains__(self, x) -> bool:
        return self.group.check(x) in self.lengths

    def length(self, x) -> Fraction:
        x = self.group.check(x)
        try:
            return self.lengths[x]
        except KeyError:
            raise UnexploredError(f"{self.group.format(x)} lies outside the explored ball") from None

    def final_length(self, x) -> Fraction:
        """Length of x, raising unless the value can no longer improve."""
        value = self.length(x)
        if self.boundary is not None and value >= self.boundary:
            raise UnexploredError(f"length of {self.group.format(x)} is not settled (truncated search)")
        return value

    def final_items(self) -> list[tuple[Element, Fraction]]:
        if self.boundary is None:
            return list(self.lengths.items())
        return [(x, v) for x, v in self.lengths.items() if v < self.boundary]

    def exp_length_sum(self) -> float:
        """The sum of exp(-length) over the final entries, one exp per run of a shared level.

        ``fsum`` is exact, so the same terms give the same bits in any grouping, and an entry
        that is not final adds a 0.0 that changes nothing.
        """
        terms = []
        level = None
        for v in self.lengths.values():
            if v is not level:
                level = v
                term = math.exp(-float(v)) if self.boundary is None or v < self.boundary else 0.0
            terms.append(term)
        return math.fsum(terms)

    def spheres(self) -> dict[Fraction, tuple[Element, ...]]:
        """Level sets of the length, keyed by exact level, elements in table order.

        A run of elements holding one level object costs one dict lookup; a
        hand-built table whose equal levels are distinct objects, or out of
        order, still groups by value.
        """
        acc: dict[Fraction, list[Element]] = {}
        level = None
        for x, v in self.lengths.items():
            if v is not level:
                level = v
                run = acc.setdefault(v, [])
            run.append(x)
        return {v: tuple(xs) for v, xs in sorted(acc.items())}

    def max_complete_integer_level(self) -> int:
        """Largest n with all spheres at integer levels <= n complete (-1 if none).

        Level n is complete when n <= radius and n < boundary, that is
        n <= ceil(boundary) - 1.
        """
        n = math.floor(self.radius)
        return n if self.boundary is None else min(n, math.ceil(self.boundary) - 1)


def explore_ball(
    group: Group,
    generators: GeneratorSet,
    weights: WeightFunction,
    radius=DEFAULT_RADIUS,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> LengthReport:
    """Uniform-cost search of the weighted Cayley ball around the identity.

    Every element whose length is at most ``radius`` is settled, unless the
    element cap fires first; in that case the report is marked truncated and
    the boundary records where certainty ends.

    Costs are integers, so the frontier is a list of candidates per pending
    cost plus a heap of those costs.  A level opens as the sorted list of its
    live candidates (each joins a level at most once), so it settles in
    element order, as one (cost, element) heap would, and the cap keeps the
    same elements: a level that would pass it is cut to a prefix.  Only when
    some weight is 0 does the open level settle through a heap, since a
    zero-weight step pushes onto it.  The settled level is then expanded one
    positive step at a time, and a step whose cost would pass the radius is
    skipped before any product is made.  Final costs do not depend on the
    order of expansion, so the report is the one a single heap would give.
    """
    radius = Fraction(radius)
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if element_cap < 1:
        raise ValueError(f"element cap must be positive, got {element_cap}")
    gens = generators.elements
    WeightFunction.require_count(weights.values, len(gens))
    scale = math.lcm(*(w.denominator for w in weights.values))
    int_weights = [int(w * scale) for w in weights.values]
    int_radius = math.floor(radius * scale)  # costs are integers, so c <= r*scale iff c <= this

    # the frontier: a heap of the distinct pending costs, each owning a list of
    # candidates; a candidate is stale once a cheaper cost for it was recorded
    best: dict[Element, int] = {group.identity: 0}
    pending: dict[int, list[Element]] = {0: [group.identity]}
    costs = [0]
    lengths: dict[Element, Fraction] = {}
    settled = 0
    truncated = False
    boundary_int: int | None = None
    mul, get = group.mul, best.get
    zero = [a for a, w in zip(gens, int_weights) if w == 0]
    positive = [(a, w) for a, w in zip(gens, int_weights) if w > 0]
    heappop, heappush = heapq.heappop, heapq.heappush

    while costs:
        cost = heappop(costs)
        # a candidate joins a level at most once, and a sorted list is already a heap
        level = sorted([x for x in pending.pop(cost) if best[x] == cost])
        if not level:
            continue
        if zero:
            # zero-weight steps grow the open level: settle it as one (cost, element) heap would
            out: list[Element] = []
            while level:
                if settled == element_cap:
                    truncated = True
                    break
                x = heappop(level)
                settled += 1
                out.append(x)
                for a in zero:
                    y = mul(x, a)
                    b = get(y)
                    if b is None or cost < b:
                        best[y] = cost
                        heappush(level, y)
            out.sort()  # a zero-weight step may settle an element below one settled before it
            level = out
        elif settled + len(level) > element_cap:
            level = level[:element_cap - settled]
            truncated = True
        else:
            settled += len(level)
        lengths.update(dict.fromkeys(level, Fraction(cost, scale)))
        if truncated:
            boundary_int = cost
            break
        # expand the settled level one step at a time; no product is made past the radius
        for a, w in positive:
            c = cost + w
            if c > int_radius:
                continue
            bucket = pending.get(c)
            if bucket is None:
                bucket = pending[c] = []
                heappush(costs, c)
            push = bucket.append
            for y in map(mul, level, repeat(a)):
                b = get(y)
                if b is None or c < b:
                    best[y] = c
                    push(y)

    boundary = None if boundary_int is None else Fraction(boundary_int, scale)
    return LengthReport(
        group=group,
        generators=generators,
        weights=weights,
        radius=radius,
        lengths=lengths,
        truncated=truncated,
        boundary=boundary,
    )


def subadditivity_check(report: LengthReport, samples: int = 500, seed: int = 0) -> SampledInequality:
    """Sample settled pairs and verify len(x*y) <= len(x) + len(y).

    Pairs whose product falls outside the settled region are skipped and
    counted; the inequality is checked exactly on rationals.
    """
    pool = [x for x, _ in report.final_items()]
    if not pool:
        return SampledInequality(checked=0, skipped=0, violations=())
    lengths, mul, bound = report.lengths, report.group.mul, report.boundary

    # the ball holds canonical elements and mul makes them, so the product is read without a check
    def holds(x, y):
        z = lengths.get(mul(x, y))
        if z is None or (bound is not None and z >= bound):
            return None
        return z <= lengths[x] + lengths[y]

    return sample_pairs(pool, samples, seed, holds)


# ---------------------------------------------------------------------------
# sphere-counting bounds


@dataclass(frozen=True)
class SphereRow:
    """A sphere (or nuclearity gap level): size, bound, running sum of count * e^-level."""

    level: int
    count: int
    bound: int
    cumulative: float


def sphere_bound(n: int) -> int:
    """2^(n-1), the number of compositions of n: the most elements a level-n sphere holds."""
    return 2 ** (n - 1)


def gap_bound(n: int) -> int:
    """n * 2^(n-1), and 1 at n = 0: the most elements a nuclearity gap-n level holds."""
    return n * 2 ** (n - 1) if n >= 1 else 1


def _sphere_rows(counts, bound) -> tuple[SphereRow, ...]:
    rows = []
    cumulative = 0.0
    for n, count in counts:
        cumulative += count * math.exp(-n)
        rows.append(SphereRow(level=n, count=count, bound=bound(n), cumulative=cumulative))
    return tuple(rows)


@dataclass(frozen=True)
class SphereBoundReport:
    rows: tuple[SphereRow, ...]
    max_level: int

    @property
    def passed(self) -> bool:
        return all(r.count <= r.bound for r in self.rows)


def sphere_bound_check(report: LengthReport) -> SphereBoundReport:
    """Check card{x : len(x) = n} <= 2^(n-1) on every complete integer level.

    Requires injective positive-integer weights; with those, an element of
    length n is pinned down by the composition of n into its letter weights,
    so the level sets obey the composition bound.  Once the search has settled
    every element of a finite group, the levels past the largest length are
    empty and the rows stop there.
    """
    if not report.weights.is_injective_integer:
        raise ValueError("sphere bound needs distinct positive integer weights")
    top = report.max_complete_integer_level()
    if report.group.is_finite:
        final = report.final_items()
        if len(final) == report.group.order:
            top = min(top, math.floor(max(v for _, v in final)))
    spheres = report.spheres()
    counts = [(n, len(spheres.get(Fraction(n), ()))) for n in range(1, top + 1)]
    return SphereBoundReport(rows=_sphere_rows(counts, sphere_bound), max_level=top)


@dataclass(frozen=True)
class SummabilityReport:
    partial: float
    finite_bound: float
    closed_form: float

    @property
    def passed(self) -> bool:
        return leq(self.partial, self.finite_bound) and leq(self.partial, self.closed_form)


def summability_partial_sums(report: LengthReport) -> SummabilityReport:
    """Partial sums of exp(-length) against the geometric closed form.

    With injective integer weights the level-n sphere holds at most 2^(n-1)
    elements, so the full series is bounded by 1 + r / (2 (1 - r)) with
    r = 2/e.  Truncated reports are rejected; the partial sum runs over the
    whole settled ball.
    """
    if report.truncated:
        raise ValueError("summability needs a non-truncated exploration")
    if not report.weights.is_injective_integer:
        raise ValueError("summability bound needs distinct positive integer weights")
    partial = report.exp_length_sum()
    top = report.max_complete_integer_level()
    # exp(-n) is 0.0 past n = 745 (below the least subnormal), so no later term adds anything
    finite = 1.0 + math.fsum(math.ldexp(math.exp(-n), n - 1) for n in range(1, min(top, 745) + 1))
    return SummabilityReport(partial=partial, finite_bound=finite, closed_form=SUMMABILITY_CLOSED_FORM)


# ---------------------------------------------------------------------------
# nuclearity witness: comparing a length against its index-shifted companion


@dataclass(frozen=True)
class NuclearityReport:
    rows: tuple[SphereRow, ...]
    partial: float
    closed_form: float
    region_size: int
    excluded: int

    @property
    def counts_pass(self) -> bool:
        return all(r.count <= r.bound for r in self.rows)

    @property
    def partial_pass(self) -> bool:
        return leq(self.partial, self.closed_form)

    @property
    def passed(self) -> bool:
        return self.counts_pass and self.partial_pass


def nuclearity_witness(
    group: Group,
    generators: GeneratorSet,
    weights: WeightFunction,
    radius=DEFAULT_RADIUS,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> NuclearityReport:
    """Grow the weights by the generator index and measure the length gap.

    With integer weights w and the companion w_k + k, the gap
    d(x) = len_companion(x) - len(x) is a positive integer away from the
    identity, each gap-n level holds at most n * 2^(n-1) elements, and the
    partial sums of exp(-d) stay below 1 + r / (2 (1 - r)^2), r = 2/e.
    The check runs on the region where both lengths are settled.
    """
    weights.require_integer()
    base = explore_ball(group, generators, weights, radius, element_cap)
    shifted = explore_ball(group, generators, weights.shifted_by_index(), radius, element_cap)
    counts: dict[int, int] = {}
    partial_terms = []
    region = 0
    excluded = 0
    # both balls hold canonical elements, so the shifted one is read without re-checking them
    bound = shifted.boundary
    for x, lf in base.final_items():
        ls = shifted.lengths.get(x)
        if ls is None or (bound is not None and ls >= bound):
            excluded += 1
            continue
        d = ls - lf
        if d.denominator != 1:
            raise ValueError(f"non-integer gap {d} at {group.format(x)}")
        region += 1
        counts[int(d)] = counts.get(int(d), 0) + 1
        partial_terms.append(math.exp(-float(d)))
    rows = _sphere_rows(sorted(counts.items()), gap_bound)
    r = SERIES_RATIO
    closed = 1.0 + r / (2.0 * (1.0 - r) ** 2)
    return NuclearityReport(
        rows=rows,
        partial=math.fsum(partial_terms),
        closed_form=closed,
        region_size=region,
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# the discrete Heisenberg witness


@dataclass(frozen=True)
class WitnessRow:
    n: int
    product: Element
    expected: Element
    growth_log: float       # log of 2^(n^2)
    envelope_log: float     # log of exp(4 n C)
    violated: bool

    @property
    def product_ok(self) -> bool:
        return self.product == self.expected


@dataclass(frozen=True)
class HeisenbergWitnessReport:
    rows: tuple[WitnessRow, ...]
    constant: Fraction
    first_violation: int | None

    @property
    def products_pass(self) -> bool:
        return all(r.product_ok for r in self.rows)


def _ln2_enclosure(bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < ln 2 < hi with hi - lo = (bits + 1) / 2^bits.

    From ln 2 = sum over k >= 1 of 1 / (k 2^k): the first ``bits`` terms,
    each floored to a multiple of 2^-bits, lose less than bits * 2^-bits, and
    the tail after them is below 2^-bits.
    """
    scale = 1 << bits
    acc = sum(scale // (k << k) for k in range(1, bits + 1))
    return Fraction(acc, scale), Fraction(acc + bits + 1, scale)


def _floor_over_ln2(q: Fraction) -> int:
    """floor(q / ln 2) for rational q >= 0, decided exactly.

    q / ln 2 is irrational unless q = 0, so the enclosures eventually agree.
    """
    bits = 64
    while True:
        lo, hi = _ln2_enclosure(bits)
        k = math.floor(q / hi)
        if k == math.floor(q / lo):
            return k
        bits *= 2


def heisenberg_witness(group: Group, n_max: int, constant=1) -> HeisenbergWitnessReport:
    """Pit doubly exponential central growth against a linear-exponent envelope.

    For each n, the chain b^-n * a^n * b^n * a^-n is evaluated by group
    multiplication and must land on the central element (0, 0, n^2).  Under a
    constant weight C on the four generators that chain has length at most
    4 n C, so any submultiplicative function dominated by exp(length) is at
    most exp(4 n C) there; the witness locates the first n where the central
    growth 2^(n^2) exceeds that envelope.  The comparison reduces to
    n * ln 2 > 4 C, which cannot tie (ln 2 is irrational, C rational), so it
    holds exactly from n = floor(4 C / ln 2) + 1 on; that floor is decided
    against rational enclosures of ln 2.  The logs in each row are floats for
    display only.
    """
    require(group, "heisenberg")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    constant = Fraction(constant)
    if constant < 0:
        raise ValueError(f"constant must be nonnegative, got {constant}")
    a, b = (1, 0, 0), (0, 1, 0)
    first = _floor_over_ln2(4 * constant) + 1
    rows = []
    for n in range(1, n_max + 1):
        chain = group.mul(
            group.mul(group.power(b, -n), group.power(a, n)),
            group.mul(group.power(b, n), group.power(a, -n)),
        )
        expected = (0, 0, n * n)
        growth_log = (n * n) * math.log(2.0)
        envelope_log = 4.0 * n * float(constant)
        rows.append(
            WitnessRow(
                n=n,
                product=chain,
                expected=expected,
                growth_log=growth_log,
                envelope_log=envelope_log,
                violated=n >= first,
            )
        )
    return HeisenbergWitnessReport(rows=tuple(rows), constant=constant, first_violation=first)
