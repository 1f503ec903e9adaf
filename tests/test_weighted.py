"""Weighted convolution seminorms, polar membership, and decompositions."""

import cmath
import gc
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualitylab import (
    Constant,
    ExpLength,
    GroupSpec,
    Scale,
    Semicharacter,
    SubmultiplicativeSeminorm,
    WeightFunction,
    WeightedVector,
    absconv_decompose,
    convolve,
    domination_check,
    dual_norm_extremizer,
    explore_ball,
    leq,
    make_group,
    pairing,
    rectangle_polar_contains,
    seminorm,
    seminorm_support_check,
    standard_generators,
    summability_check,
    weighted_property_trials,
)
from dualitylab import reports, scalars, weighted
from dualitylab.reports import LOOSE_TOL, REL_TOL, CheckResult, fold, leq_array, leq_trials

Z = make_group(GroupSpec.free_abelian(1))
REPORT = explore_ball(Z, standard_generators(Z), WeightFunction.enumerated(2), radius=14)
F = ExpLength(REPORT)
HALF = [x for x, v in REPORT.lengths.items() if 2 * v <= 14]


def vec(items):
    return WeightedVector.from_items(Z, items)


# Per-vector helpers that the property suite once called and now evaluates on arrays, kept as
# oracles: the hand loops below build their vectors, tables and verdicts with them.


class MinWeight:
    """Pointwise minimum of two weights, for the intersection rectangle.

    Not a semicharacter: minima of submultiplicative weights need not stay
    submultiplicative, but the seminorm only reads pointwise values.
    """

    def __init__(self, f, g):
        self.f, self.g = f, g
        self.group = f.group or g.group

    def value(self, x):
        return min(self.f.value(x), self.g.value(x))


def rectangle_bipolar_contains(table, f):
    """Membership of a table in the bipolar: pointwise |value| <= weight."""
    return all(leq(abs(complex(v)), f.value(x)) for x, v in table.items())


def bipolar_pairing_audit(table, f, members):
    """Compare the pointwise bipolar test against the pairing route: (pointwise verdict, pairing
    verdict, worst pairing magnitude).  The pairing route tests the sampled polar members plus, for
    every support point, the single-point polar member c 1_x with c = phase / f(x), which pairs to
    c * table[x], so it needs no vector."""
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


def random_vector(group, region, rng):
    """The vector of the suite's draws for one vector, its zero coefficients dropped."""
    picks, parts = weighted._draw_vector(rng, len(region))
    coeffs = parts.ravel().view(np.complex128).tolist()
    return WeightedVector(group, {region[i]: c for i, c in zip(picks.tolist(), coeffs) if c != 0})


def random_rectangle_member(f, region, rng, margin=1.0):
    """The table of the suite's draws for one rectangle member: f(x) r e^(i theta) at each pick,
    with r = margin u and theta = 2 pi u' from its uniforms."""
    picks, u = weighted._draw_member(rng, len(region))
    return {region[i]: f.value(region[i]) * (margin * r) * cmath.exp(1j * (2.0 * math.pi * a))
            for i, (r, a) in zip(picks.tolist(), u.tolist())}


def test_from_items_merges_and_drops_zeros():
    v = vec([((1,), 1 + 0j), ((1,), 2.0), ((0,), 0.0)])
    assert v.coeffs == {(1,): 3 + 0j}
    assert v.support == ((1,),)
    w = vec([((2,), 1.0)]) + vec([((2,), -1.0)])
    assert w.coeffs == {}
    assert WeightedVector.zero(Z).support == ()
    assert vec([((1,), 2.0)]).scaled(0).coeffs == {}


def test_group_mismatch_rejected():
    other = make_group(GroupSpec.free_abelian(1))
    with pytest.raises(ValueError):
        vec([((0,), 1.0)]) + WeightedVector.from_items(other, [((0,), 1.0)])
    with pytest.raises(ValueError):
        convolve(vec([((0,), 1.0)]), WeightedVector.from_items(other, [((0,), 1.0)]))


def test_seminorm_hand_value():
    alpha = vec([((0,), 1.0), ((1,), -2.0)])
    assert abs(seminorm(alpha, F) - (1 + 2 * math.e)) < 1e-12
    assert seminorm(WeightedVector.zero(Z), F) == 0.0
    assert abs(seminorm(alpha, Constant(1)) - 3.0) < 1e-12


def test_convolution_matches_numpy_polynomial_product():
    # vectors on nonnegative integers are polynomials; convolution multiplies them
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        va = vec([((i,), c) for i, c in enumerate(a)])
        vb = vec([((i,), c) for i, c in enumerate(b)])
        out = convolve(va, vb)
        expect = np.convolve(a, b)
        for i, c in enumerate(expect):
            assert abs(out.coeffs.get((i,), 0j) - c) < 1e-12


def test_convolution_shifts_by_group_law():
    delta = vec([((-3,), 2.0)])
    alpha = vec([((1,), 1.0), ((5,), -1.0)])
    out = convolve(delta, alpha)
    assert out.coeffs == {(-2,): 2 + 0j, (2,): -2 + 0j}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.integers(-7, 7),
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        ),
        max_size=8,
    ),
    st.sets(st.integers(-7, 7)),
)
def test_projection_contracts_property(items, keep):
    alpha = vec([((x,), c) for x, c in items])
    out = WeightedVector(Z, {x: c for x, c in alpha.coeffs.items() if x[0] in keep})
    assert leq(seminorm(out, F), seminorm(alpha, F))


def test_extremizer_attains_the_seminorm():
    rng = np.random.default_rng(7)
    for _ in range(100):
        size = int(rng.integers(1, 6))
        picks = rng.choice(len(HALF), size=size, replace=False)
        alpha = vec(
            [(HALF[int(i)], complex(*rng.normal(size=2))) for i in picks]
        )
        if not alpha.coeffs:
            continue
        u = dual_norm_extremizer(alpha, F)
        target = seminorm(alpha, F)
        assert abs(pairing(alpha, u) - target) <= 1e-12 * max(target, 1.0)
        # and u really lies in the rectangle
        assert rectangle_bipolar_contains(u, F)


def test_polar_membership_boundary():
    assert rectangle_polar_contains(vec([((0,), 1.0)]), F)
    assert not rectangle_polar_contains(vec([((1,), 1.0)]), F)
    assert rectangle_polar_contains(vec([((1,), math.exp(-1))]), F)
    assert rectangle_bipolar_contains({(0,): 1.0, (1,): math.e}, F)
    assert not rectangle_bipolar_contains({(1,): math.e * 1.01}, F)


def test_bipolar_audit_agreement_and_guard():
    inside = {(0,): 0.5, (1,): math.e * 0.9}
    members = [vec([((0,), 0.7)])]
    pointwise, paired, worst = bipolar_pairing_audit(inside, F, members)
    assert pointwise and paired and worst <= 1.0 + 1e-12
    outside = {(1,): math.e * 1.5}
    pointwise, paired, worst = bipolar_pairing_audit(outside, F, members)
    assert not pointwise and not paired and worst > 1.0
    bad_member = vec([((1,), 1.0)])  # seminorm e > 1
    with pytest.raises(ValueError):
        bipolar_pairing_audit(inside, F, [bad_member])


def basis_route_worst(table, f, group):
    """The single-point members built as checked vectors and paired, kept as the oracle."""
    worst = 0.0
    for x, v in table.items():
        v = complex(v)
        if v == 0:
            continue
        alpha = WeightedVector.from_items(group, [(x, v.conjugate() / abs(v) / f.value(x))])
        worst = max(worst, abs(pairing(alpha, table)))
    return worst


PAIRING_VALUES = st.sampled_from([0.0, -0.0, 1e-300, -2.5, math.e]) | st.complex_numbers(
    max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.dictionaries(st.sampled_from(HALF), PAIRING_VALUES, max_size=8))
def test_single_point_members_pair_without_vectors(table):
    pointwise, paired, worst = bipolar_pairing_audit(table, F, [])
    assert worst == basis_route_worst(table, F, Z)


def test_property_trials_build_no_single_point_vectors(monkeypatch):
    g = Scale(3, Constant(1))
    out = weighted_property_trials(F, g, HALF, trials=100, seed=5)

    def rebuilt(*args, **kwargs):
        raise AssertionError("a trial rebuilt and re-checked a region point")

    monkeypatch.setattr(WeightedVector, "from_items", rebuilt)
    assert repr(weighted_property_trials(F, g, HALF, trials=100, seed=5)) == repr(out)


def test_property_trials_check_each_element_at_most_twice(monkeypatch):
    # once as a region element on entry, once when the suite reads f there;
    # the projection draw keeps region elements without checking them again
    z = make_group(GroupSpec.free_abelian(1))
    report = explore_ball(z, standard_generators(z), WeightFunction.enumerated(2), radius=14)
    region = [x for x, v in report.lengths.items() if 2 * v <= 14]
    out = weighted_property_trials(ExpLength(report), g_weight(), region, group=z, trials=100, seed=5)
    seen = Counter()
    check = z.check
    monkeypatch.setattr(z, "check", lambda x: seen.update([x]) or check(x))
    again = weighted_property_trials(ExpLength(report), g_weight(), region, group=z, trials=100, seed=5)
    assert repr(again) == repr(out)
    assert max(seen.values()) <= 2, seen.most_common(3)


def test_random_rectangle_member_stays_inside():
    # the suite's array values of a member are the cmath values bit for bit, and lie in the rectangle
    arrays, dicts = np.random.default_rng(3), np.random.default_rng(3)
    weights = np.array([F.value(x) for x in HALF])
    for margin in (1.0, 0.5):
        for _ in range(50):
            picks, u = weighted._draw_member(arrays, len(HALF))
            re, im = weighted._rectangle_values(weights[picks], u, margin)
            table = random_rectangle_member(F, HALF, dicts, margin)
            assert [(z.real.hex(), z.imag.hex()) for z in table.values()] == [
                (a.hex(), b.hex()) for a, b in zip(re.tolist(), im.tolist())]
            assert leq_array(np.hypot(re, im), weights[picks]).all() and rectangle_bipolar_contains(table, F)


def g_weight():
    return Scale(3, Constant(1))


def test_decomposition_feasible_hand_case():
    g = g_weight()
    # support (0,) goes to the f side (f = 1 <= g = 3); (-2,) to the g side
    alpha = vec([((0,), 0.25), ((-2,), 0.1j)])
    dec = absconv_decompose(alpha, F, g)
    assert dec.feasible
    a, b = 0.25, 0.3
    assert abs(dec.min_norm - (a + b)) < 1e-12
    assert abs(dec.lam - 0.5 * (1 + a - b)) < 1e-12
    assert dec.verify(alpha, F, g)
    recombined = dec.beta.scaled(dec.lam) + dec.gamma.scaled(1 - dec.lam)
    assert recombined.max_abs_diff(alpha) <= 1e-12
    # verify formed the recombination once, with these bits, and keeps it for the residual
    assert dec.__dict__["recombined"].coeffs == recombined.coeffs
    assert leq(seminorm(dec.beta, F), 1.0)
    assert leq(seminorm(dec.gamma, g), 1.0)


def test_decomposition_edges_and_infeasible():
    g = g_weight()
    # everything on the g side: lam collapses toward 1/2 - b/2
    alpha = vec([((-1,), 0.05)])  # f = e^2 > g = 3
    dec = absconv_decompose(alpha, F, g)
    assert dec.feasible and dec.verify(alpha, F, g)
    assert dec.beta.coeffs == {}
    # exact boundary: a = 1, b = 0 forces lam = 1
    boundary = vec([((0,), 1.0)])
    dec = absconv_decompose(boundary, F, g)
    assert dec.feasible and dec.lam == 1.0 and dec.gamma.coeffs == {}
    assert dec.verify(boundary, F, g)
    # far outside: the min-seminorm certificate says no split can work
    heavy = vec([((0,), 5.0)])
    dec = absconv_decompose(heavy, F, g)
    assert not dec.feasible
    assert dec.min_norm > 1.0
    assert dec.verify(heavy, F, g)
    assert abs(dec.min_norm - seminorm(heavy, MinWeight(F, g))) < 1e-12


def test_min_weight_values():
    g = g_weight()
    m = MinWeight(F, g)
    assert m.value((0,)) == 1.0  # f wins at the identity
    assert m.value((-1,)) == 3.0  # g wins once exp(length) passes 3
    assert m.group is Z


def test_max_seminorm_hand_values_and_validation():
    x, y = (0,), (1,)
    q = SubmultiplicativeSeminorm(support=(x, y), weights={x: 2.0, y: 4.0}, scale=1.5)
    assert q({x: 1.0, y: 0.5}) == 1.5 * max(2.0, 2.0)
    assert q({y: -2j}) == 1.5 * 8.0
    assert q.indicator_value(x) == 3.0
    assert q.indicator_value((9,)) == 0.0
    with pytest.raises(ValueError):
        SubmultiplicativeSeminorm(support=(), weights={}, scale=1.0)
    with pytest.raises(ValueError):
        SubmultiplicativeSeminorm(support=(x,), weights={x: 0.5})
    with pytest.raises(ValueError):
        SubmultiplicativeSeminorm(support=(x,), weights={x: 2.0}, scale=0.9)
    with pytest.raises(ValueError):
        SubmultiplicativeSeminorm(support=(x, y), weights={x: 2.0})
    with pytest.raises(ValueError, match="distinct"):
        SubmultiplicativeSeminorm(support=(x, y, x), weights={x: 2.0, y: 4.0})


def test_seminorm_check_suite_passes():
    rng = np.random.default_rng(42)
    support = tuple(sorted(HALF))[:6]
    q = SubmultiplicativeSeminorm(
        support=support,
        weights={x: float(w) for x, w in zip(support, (1.0, 2.5, 1.5, 3.0, 1.0, 2.0))},
        scale=2.0,
    )
    out = seminorm_support_check(q, rng, trials=200)
    assert [c.name for c in out] == ["indicator-floor", "idempotent-consistency", "submultiplicative"]
    assert all(c.passed for c in out)
    dom = domination_check(q, rng, trials=200)
    assert dom.name == "domination" and dom.passed
    summ = summability_check(q, F, REPORT)
    assert summ.name == "summability" and summ.passed


def test_summability_fails_where_its_envelope_overflows():
    # at length 400 the bracket q(1_x) exp(2 len x) is past DBL_MAX: an infinite bound would hold
    # whatever the mass, so the check fails and names the overflow
    report = explore_ball(Z, standard_generators(Z), WeightFunction.enumerated(2), radius=400)
    x = next(x for x, v in report.lengths.items() if v == 400)
    q = SubmultiplicativeSeminorm(support=(x,), weights={x: 2.0}, scale=1.5)
    summ = summability_check(q, ExpLength(report), report)
    assert not summ.passed and summ.detail.endswith("envelope x partial overflows a double")


def random_table(support, rng):
    """Complex values on ``support``, real and imaginary parts drawn from N(0, 2^2), in one draw."""
    return dict(zip(support, rng.normal(0.0, 2.0, size=(len(support), 2)).view(np.complex128).ravel().tolist()))


def test_random_table_shape():
    rng = np.random.default_rng(0)
    t = random_table([(0,), (1,)], rng)
    assert set(t) == {(0,), (1,)}
    assert all(isinstance(v, complex) for v in t.values())


def looped_seminorm_checks(q, rng, trials):
    """The sampled rows of ``seminorm_support_check`` and ``domination_check``, one
    ``random_table`` and one ``q(...)`` per table, kept as the oracle of the block draws."""

    def submultiplicative():
        u = random_table(q.support, rng)
        v = random_table(q.support, rng)
        return q({x: u[x] * v[x] for x in q.support}), q(u) * q(v)

    first = leq_trials("submultiplicative", trials, submultiplicative, weighted.REL_TOL)
    total = math.fsum(q.indicator_value(x) for x in q.support)

    def domination():
        u = random_table(q.support, rng)
        return q(u), total * max(abs(u[x]) for x in q.support)

    return [first, leq_trials("domination", trials, domination, weighted.REL_TOL)]


def block_trials(k):
    """Trial counts at the edges of the blocks of both checks on a k-point support."""
    edges = {weighted._BLOCK_POINTS // (per_trial * k) for per_trial in (1, 2)}
    return sorted({1, *(b + d for b in edges for d in (-1, 0, 1))} - {0})


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.floats(1.0, 4.0, exclude_max=True), min_size=1, max_size=8),
    scale=st.floats(1.0, 3.0, exclude_max=True),
    pick=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
    failing=st.booleans(),
)
def test_seminorm_checks_match_the_per_table_loop(weights, scale, pick, seed, failing):
    support = tuple(sorted(HALF))[:len(weights)]
    q = SubmultiplicativeSeminorm(support=support, weights=dict(zip(support, weights)), scale=scale)
    choices = block_trials(len(support))
    trials = choices[pick % len(choices)]
    batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        if failing:
            # no trial meets a negative tolerance, so each row's first failing tag is compared too
            mp.setattr(weighted, "REL_TOL", -1.0)
        got = seminorm_support_check(q, batched, trials=trials)[2:] + [domination_check(q, batched, trials=trials)]
        want = looped_seminorm_checks(q, looped, trials)
    assert repr(got) == repr(want)
    assert [c.residual.hex() for c in got] == [c.residual.hex() for c in want]
    assert all(c.passed != failing for c in got)
    assert batched.bit_generator.state == looped.bit_generator.state


def test_the_array_modulus_and_product_are_cpythons():
    # numpy's complex128 abs and * round differently from CPython's abs(complex) and complex *
    # in the last bit on a fair share of N(0, 4) values, which would change the seminorm rows'
    # bits; np.hypot of the parts and scalars.times are what the checks use instead
    rng = np.random.default_rng(11)
    ur, ui, vr, vi = rng.normal(0.0, 2.0, size=(4, 10**5))
    u = [complex(a, b) for a, b in zip(ur.tolist(), ui.tolist())]
    v = [complex(a, b) for a, b in zip(vr.tolist(), vi.tolist())]
    assert [x.hex() for x in np.hypot(ur, ui).tolist()] == [abs(a).hex() for a in u]
    re, im = scalars.times((ur, ui), (vr, vi))
    want = [a * b for a, b in zip(u, v)]
    assert [x.hex() for x in re.tolist()] == [z.real.hex() for z in want]
    assert [x.hex() for x in im.tolist()] == [z.imag.hex() for z in want]


def test_a_seminorm_checks_memory_does_not_grow_with_trials():
    support = tuple(sorted(HALF))[:8]
    q = SubmultiplicativeSeminorm(support=support, weights=dict.fromkeys(support, 2.0), scale=1.5)

    def peak(trials):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            seminorm_support_check(q, rng, trials=trials)
            domination_check(q, rng, trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**4), peak(10**5)
    # one block of tables at a time: ten times the trials, the same peak
    assert large <= 1.1 * small, (small, large)


def test_property_trials_all_pass():
    g = Scale(3, Constant(1))
    out = weighted_property_trials(F, g, HALF, trials=200, seed=5)
    assert [c.name for c in out] == [
        "convolution-submultiplicative",
        "projection-contraction",
        "extremizer-optimal",
        "bipolar-agreement",
        "decomposition-sound",
    ]
    for c in out:
        assert c.passed, c
    # the extremizer identity is tight to near machine precision
    assert out[2].residual <= 1e-12


# The per-point draws each batched draw replaces, kept as their oracles.


def per_point_vector(group, region, rng):
    size = int(rng.integers(1, 7))
    picks = rng.choice(len(region), size=min(size, len(region)), replace=False)
    items = []
    for i in picks:
        re, im = rng.normal(0.0, 1.0, size=2)
        items.append((region[int(i)], complex(float(re), float(im))))
    return WeightedVector.from_items(group, items)


def per_point_rectangle_member(f, region, rng, margin=1.0):
    size = int(rng.integers(1, len(region) + 1))
    picks = rng.choice(len(region), size=size, replace=False)
    out = {}
    for i in picks:
        x = region[int(i)]
        r = float(rng.uniform(0.0, margin))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        out[x] = f.value(x) * r * cmath.exp(1j * theta)
    return out


def per_point_table(support, rng):
    out = {}
    for x in support:
        re, im = rng.normal(0.0, 2.0, size=2)
        out[x] = complex(float(re), float(im))
    return out


WIDE = explore_ball(Z, standard_generators(Z), WeightFunction.enumerated(2), radius=60)
WIDE_F = ExpLength(WIDE)


@pytest.mark.parametrize("size", [1, 2, 5, 13, 40])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_batched_draws_keep_the_stream(seed, size):
    region = [x for x, _ in WIDE.final_items()][:size]
    assert len(region) == size
    draws = [
        (lambda rng: random_vector(Z, region, rng).coeffs,
         lambda rng: per_point_vector(Z, region, rng).coeffs),
        *((lambda rng, m=m: random_rectangle_member(WIDE_F, region, rng, margin=m),
           lambda rng, m=m: per_point_rectangle_member(WIDE_F, region, rng, margin=m))
          for m in (0.5, 1.0, 1.5)),
        (lambda rng: random_table(region, rng), lambda rng: per_point_table(region, rng)),
    ]
    batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        for draw, oracle in draws:
            got, want = draw(batched), oracle(looped)
            # same points in the same order, bit-equal values
            assert list(got.items()) == list(want.items())
    assert batched.bit_generator.state == looped.bit_generator.state


class CountingWeight(Semicharacter):
    """Delegates to a weight and counts the reads per element."""

    def __init__(self, f):
        self.f, self.group = f, f.group
        self.reads = Counter()

    def value(self, x):
        self.reads[x] += 1
        return self.f.value(x)


def test_property_trials_read_each_weight_once_per_element(monkeypatch):
    z2 = make_group(GroupSpec.free_abelian(2))
    report = explore_ball(z2, standard_generators(z2), WeightFunction.enumerated(4), radius=8)
    half = [x for x, v in report.final_items() if 2 * v <= 8]
    f, g = CountingWeight(ExpLength(report)), CountingWeight(Scale(3, Constant(1)))
    out = weighted_property_trials(f, g, half, trials=100, seed=3)
    assert f.reads and set(f.reads.values()) == {1} and set(g.reads.values()) == {1}
    # the memo lives for one call: a second call reads each element once more
    weighted_property_trials(f, g, half, trials=100, seed=3)
    assert set(f.reads.values()) == {2}
    # the same results, to the last bit, with every read going to the weight
    monkeypatch.setattr(weighted, "_ReadOnce", lambda w: w)
    plain_f, plain_g = CountingWeight(ExpLength(report)), CountingWeight(Scale(3, Constant(1)))
    assert repr(weighted_property_trials(plain_f, plain_g, half, trials=100, seed=3)) == repr(out)
    assert max(plain_f.reads.values()) > 1
    # the public weight still validates its argument
    with pytest.raises(ValueError):
        ExpLength(report).value((1.0, 0))


def hand_trial_loop(pairs, rtol):
    """The lhs <= rhs trial loop that ``leq_trials`` folds, kept as its oracle."""
    worst = 0.0
    ok = True
    detail = ""
    for i, (lhs, rhs) in enumerate(pairs):
        worst = max(worst, lhs - rhs)
        if ok and not leq(lhs, rhs, rtol):
            ok, detail = False, f"trial {i}: lhs {lhs!r}, rhs {rhs!r}"
    return CheckResult(name="trial", passed=ok, residual=max(worst, 0.0), detail=detail)


# pairs anywhere, and pairs within a few 1e-9 of each other, where the two
# tolerances decide differently
_ANY_PAIR = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
_NEAR_PAIR = st.tuples(st.floats(1e-3, 1e3), st.floats(-3e-9, 3e-9)).map(lambda t: (t[0] * (1 + t[1]), t[0]))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.one_of(_ANY_PAIR, _NEAR_PAIR), max_size=12), rtol=st.sampled_from([REL_TOL, LOOSE_TOL]))
def test_leq_trials_matches_the_hand_loop(pairs, rtol):
    drawn = []

    def draw():
        drawn.append(pairs[len(drawn)])
        return drawn[-1]

    got = leq_trials("trial", len(pairs), draw, rtol)
    assert repr(got) == repr(hand_trial_loop(pairs, rtol))
    # every draw is made, in order, also after a failing pair
    assert drawn == pairs
    assert got.residual >= 0.0


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.one_of(st.tuples(st.floats(), st.floats()), _NEAR_PAIR), min_size=1, max_size=12),
       rtol=st.sampled_from([REL_TOL, LOOSE_TOL, -1.0]))
def test_leq_array_is_leq_entry_by_entry(pairs, rtol):
    a, b = np.array(pairs).T
    # Python's float arithmetic overflows to inf and makes NaNs silently; numpy's warns
    with np.errstate(over="ignore", invalid="ignore"):
        assert leq_array(a, b, rtol).tolist() == [leq(x, y, rtol) for x, y in pairs]


def test_leq_trials_tolerances_and_residual_floor():
    tight = [(1.0 + 1e-10, 1.0)]
    failed = leq_trials("t", 1, iter(tight).__next__, REL_TOL)
    assert not failed.passed and failed.detail == "trial 0: lhs 1.0000000001, rhs 1.0"
    assert leq_trials("t", 1, iter(tight).__next__, LOOSE_TOL).passed
    slack = [(0.5, 1.0), (1.0, 3.0)]
    assert leq_trials("t", 2, iter(slack).__next__, REL_TOL) == CheckResult("t", True, residual=0.0)


def hand_property_trials(f, g, region, group, trials, seed):
    """``weighted_property_trials`` with its extremizer, bipolar and decomposition
    checks as hand-written loops, kept as the oracle of their folds."""
    w = weighted
    rng = np.random.default_rng(seed)
    region = [group.check(x) for x in region]
    f, g = w._ReadOnce(f), w._ReadOnce(g)

    def draw_convolution():
        alpha = random_vector(group, region, rng)
        beta = random_vector(group, region, rng)
        return seminorm(convolve(alpha, beta), f), seminorm(alpha, f) * seminorm(beta, f)

    def draw_projection():
        alpha = random_vector(group, region, rng)
        size = int(rng.integers(0, len(region) + 1))
        keep = {region[int(i)] for i in rng.choice(len(region), size=size, replace=False)}
        kept = WeightedVector(group, {x: c for x, c in alpha.coeffs.items() if x in keep})
        return seminorm(kept, f), seminorm(alpha, f)

    results = [
        leq_trials("convolution-submultiplicative", trials, draw_convolution, LOOSE_TOL),
        leq_trials("projection-contraction", trials, draw_projection, w.REL_TOL),
    ]

    def witness(i, alpha):
        return f"trial {i}: support " + " ".join(group.format(x) for x in sorted(alpha.coeffs))

    worst = 0.0
    ok = True
    detail = ""
    for i in range(trials):
        alpha = random_vector(group, region, rng)
        u = dual_norm_extremizer(alpha, f)
        value = pairing(alpha, u)
        target = seminorm(alpha, f)
        err = abs(value - target)
        rel = err / max(target, 1.0)
        worst = max(worst, rel)
        member = random_rectangle_member(f, region, rng)
        if ok and not (rel <= w.REL_TOL and leq(abs(pairing(alpha, member)), target)):
            ok, detail = False, witness(i, alpha)
    results.append(CheckResult(name="extremizer-optimal", passed=ok, residual=worst, detail=detail))

    ok = True
    agreements = 0
    for _ in range(trials):
        margin = 0.5 if rng.uniform() < 0.5 else 1.5
        table = random_rectangle_member(f, region, rng, margin=margin)
        members = [random_vector(group, region, rng).scaled(0.0)]
        alpha = random_vector(group, region, rng)
        n = seminorm(alpha, f)
        if n > 0:
            members.append(alpha.scaled(1.0 / (n * (1.0 + 1e-9))))
        pointwise, paired, _ = bipolar_pairing_audit(table, f, members)
        if pointwise == paired:
            agreements += 1
        else:
            ok = False
    results.append(CheckResult(name="bipolar-agreement", passed=ok, detail=f"{agreements}/{trials} agreed"))

    ok = True
    worst = 0.0
    detail = ""
    for i in range(trials):
        alpha = random_vector(group, region, rng)
        norm = seminorm(alpha, MinWeight(f, g))
        if norm == 0.0:
            continue
        target = float(rng.uniform(0.2, 1.2))
        alpha = alpha.scaled(target / norm)
        dec = absconv_decompose(alpha, f, g)
        expected_feasible = leq(dec.min_norm, 1.0)
        if ok and not ((dec.feasible == expected_feasible) and dec.verify(alpha, f, g)):
            ok, detail = False, witness(i, alpha)
        if dec.feasible:
            recombined = dec.beta.scaled(dec.lam) + dec.gamma.scaled(1.0 - dec.lam)
            worst = max(worst, recombined.max_abs_diff(alpha))
    results.append(CheckResult(name="decomposition-sound", passed=ok, residual=worst, detail=detail))
    return results


Z2 = make_group(GroupSpec.free_abelian(2))
Z2_REPORT = explore_ball(Z2, standard_generators(Z2), WeightFunction.enumerated(4), radius=20)
# half-radius balls of 11 and 46 points on Z and of 50 on Z^2; on the small one a product
# element often gathers three or more pairs, whose order of addition shows in the bits
BALLS = [(Z, F, HALF), (Z, WIDE_F, [x for x, v in WIDE.final_items() if 2 * v <= 60]),
         (Z2, ExpLength(Z2_REPORT), [x for x, v in Z2_REPORT.final_items() if 2 * v <= 20])]
SUITE_CHECKS = ["convolution-submultiplicative", "projection-contraction", "extremizer-optimal",
                "bipolar-agreement", "decomposition-sound"]


class Lopsided(Semicharacter):
    """2^(|x|^2 / 16) on coordinates: f(xy) = f(x) f(y) 2^(<x, y> / 8), so not submultiplicative."""

    def value(self, x):
        return 2.0 ** (sum(a * a for a in x) / 16)


class Faint(Semicharacter):
    """A weight times 1e-20, below the absolute slack REL_TOL of ``leq``: a table point of radius
    past 1 still passes the pointwise bipolar test, while its single-point member pairs past 1."""

    def __init__(self, f):
        self.f, self.group = f, f.group

    def value(self, x):
        return 1e-20 * self.f.value(x)


def traced(run, *args, **kwargs):
    """``run``'s result, the final state of the one generator it makes, and the bits of every
    (lhs, rhs) pair its ``leq_trials`` folds see, in order: a residual shows only the worst pair."""
    made, pairs = [], []
    default_rng = np.random.default_rng

    def recorded(name, trials, draw, rtol):
        def drawn():
            lhs, rhs = draw()
            pairs.append((name, lhs.hex(), rhs.hex()))
            return lhs, rhs
        return reports.leq_trials(name, trials, drawn, rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
        # the suite's folds, and the hand loops', which read this module's name
        mp.setattr(weighted, "leq_trials", recorded)
        mp.setattr(sys.modules[__name__], "leq_trials", recorded)
        out = run(*args, **kwargs)
    (rng,) = made
    return out, rng.bit_generator.state, pairs


DRAW_MEMBER = weighted._draw_member


def tripled_members(rng, n):
    """``weighted._draw_member`` with each radius tripled: members outside the rectangle."""
    picks, u = DRAW_MEMBER(rng, n)
    return picks, u * [3.0, 1.0]


def test_property_trial_folds_match_the_hand_loops():
    failed = Counter()
    failed_by_fault = {}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        ball=st.sampled_from(BALLS),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
        pick=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
        fault=st.sampled_from([None, "tolerance", "lopsided", "faint", "members"]),
    )
    def compare(ball, picks, pick, seed, fault):
        group, f, half = ball
        region = list(dict.fromkeys(half[i % len(half)] for i in picks))
        # one trial, a few, the edges of the suite's blocks, and more than one block
        step = max(1, weighted._BLOCK_POINTS // max(36, len(region) + 1))
        choices = [1, 2, 7, step - 1, step, step + 1, 2 * step + 1]
        trials = choices[pick % len(choices)]
        g = Scale(3, Constant(1))
        # each fault makes trials fail, so the folds' failing paths are compared too: no trial
        # meets a negative tolerance; a weight that is not submultiplicative breaks the convolution
        # bound; a weight below leq's absolute slack makes the bipolar verdicts disagree; members
        # drawn outside the rectangle (both paths draw them through weighted._draw_member) pair past
        # the extremizer's target
        f = {"lopsided": Lopsided(), "faint": Faint(f)}.get(fault, f)
        with pytest.MonkeyPatch.context() as mp:
            if fault == "tolerance":
                mp.setattr(weighted, "REL_TOL", -1.0)
            if fault == "members":
                mp.setattr(weighted, "_draw_member", tripled_members)
            want, *want_trace = traced(hand_property_trials, f, g, region, group, trials, seed)
            got, *got_trace = traced(weighted_property_trials, f, g, region, group=group, trials=trials, seed=seed)
        assert repr(got) == repr(want)
        assert [c.residual.hex() for c in got] == [c.residual.hex() for c in want]
        assert got_trace == want_trace
        if fault == "tolerance":
            assert not got[2].passed and got[2].detail.startswith("trial 0: support ")
        failed.update(c.name for c in got if not c.passed)
        failed_by_fault.setdefault(fault, Counter()).update(c.name for c in got if not c.passed)

    compare()
    # across the examples every check fails at least once
    assert sorted(failed) == sorted(SUITE_CHECKS), failed
    # and the extremizer fails on its member clause alone, with its tolerance kept
    assert failed_by_fault["members"]["extremizer-optimal"], failed_by_fault


def test_the_z2_benchmark_polar_input_matches_the_hand_loops():
    # polar-suite on Z^2 with its defaults (radius 14, weightF expLength, weightG const 3), as the
    # benchmark runs it: trials 1000, seed 0
    report = explore_ball(Z2, standard_generators(Z2), WeightFunction.enumerated(4), radius=14)
    half = [x for x, v in report.final_items() if 2 * v <= report.radius]
    f, g = ExpLength(report), Constant(3)
    want, *want_trace = traced(hand_property_trials, f, g, half, Z2, 1000, 0)
    got, *got_trace = traced(weighted_property_trials, f, g, half, group=Z2, trials=1000, seed=0)
    assert repr(got) == repr(want)
    assert [c.residual.hex() for c in got] == [c.residual.hex() for c in want]
    assert got_trace == want_trace
    assert all(c.passed for c in got)


def test_property_trials_refuse_an_empty_region():
    with pytest.raises(ValueError, match="empty region"):
        weighted_property_trials(F, Constant(3), [], group=Z, trials=1)


def test_property_trials_refuse_a_region_that_lists_an_element_twice():
    with pytest.raises(ValueError, match="distinct elements"):
        weighted_property_trials(F, Constant(3), [HALF[0], HALF[1], HALF[0]], group=Z, trials=1)


def property_trials_peak(trials):
    """The tracemalloc peak of one ``weighted_property_trials`` call on the 11-point Z region."""
    gc.collect()
    tracemalloc.start()
    try:
        weighted_property_trials(F, Constant(3), HALF, group=Z, trials=trials, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_property_trials_memory_does_not_grow_with_trials():
    peak = property_trials_peak
    step = weighted._BLOCK_POINTS // 36
    block = peak(step) - peak(1)
    small, large = peak(1000), peak(10**4)
    # a block of trials at a time: ten times the trials add less than one block of trials adds to
    # a single trial (the largest of more blocks, and CPython's tuple free list, add a little)
    assert large - small <= block, (block, small, large)


def test_the_property_trials_hold_one_block_at_a_time():
    assert len(HALF) == 11
    property_trials_peak(1)
    one = property_trials_peak(weighted._BLOCK_POINTS // 36)
    many = property_trials_peak(1000)
    # each block is evaluated in a call of its own, so its arrays are freed before the next block
    # is drawn: nine blocks peak about as one does.  What they add is CPython's free list of
    # 1-tuples, filled by the group products of the convolution trials (at most 2000 of them);
    # holding the previous block while drawing the next one read 1.56 times one block
    assert many < 1.25 * one, (one, many)


def test_fold_consumes_every_outcome_and_names_the_first_failure():
    seen = []

    def outcomes():
        for ok, residual, tag in [(True, -2.0, "a"), (False, 0.5, "b"), (True, 3.0, "c"), (False, 1.0, "d")]:
            seen.append(tag)
            yield ok, residual, tag

    assert fold("t", outcomes()) == CheckResult("t", False, residual=3.0, detail="b")
    assert seen == ["a", "b", "c", "d"]
    assert fold("t", [(True, -1.0, "a")]) == CheckResult("t", True, residual=0.0)
    assert fold("t", []) == CheckResult("t", True)
