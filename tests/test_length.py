"""Length exploration against independent oracles, plus the counting bounds."""

import dataclasses
import heapq
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitylab import (
    GroupSpec,
    UnexploredError,
    WeightFunction,
    explore_ball,
    heisenberg_witness,
    make_generator_set,
    make_group,
    nuclearity_witness,
    sphere_bound_check,
    subadditivity_check,
    summability_partial_sums,
    standard_generators,
)


def weights_of(values) -> WeightFunction:
    """A weight function from ints, Fractions or strings, one per generator."""
    return WeightFunction(tuple(Fraction(v) for v in values))


def line_report(radius=14):
    z = make_group(GroupSpec.free_abelian(1))
    gens = standard_generators(z)
    return explore_ball(z, gens, WeightFunction.enumerated(2), radius=radius)


def test_line_lengths_closed_form():
    # weights: +1 costs 1, -1 costs 2, so len(x) = x for x >= 0 and 2|x| below
    rep = line_report()
    assert not rep.truncated and rep.boundary is None
    expected = {}
    for x in range(0, 15):
        expected[(x,)] = Fraction(x)
    for x in range(-7, 0):
        expected[(x,)] = Fraction(-2 * x)
    assert rep.lengths == expected


def test_line_hand_values():
    rep = line_report()
    assert rep.final_length((-1,)) == 2
    assert rep.final_length((2,)) == 2
    assert rep.final_length((0,)) == 0
    with pytest.raises(UnexploredError):
        rep.final_length((15,))


def test_free_group_unweighted_sphere_sizes():
    # with constant weights the level-n sphere is the 4 * 3^(n-1) reduced words
    f2 = make_group(GroupSpec.free(2))
    rep = explore_ball(f2, standard_generators(f2), WeightFunction.constant(4), radius=6)
    spheres = rep.spheres()
    assert len(spheres[Fraction(0)]) == 1
    for n in range(1, 7):
        assert len(spheres[Fraction(n)]) == 4 * 3 ** (n - 1)


def test_weighted_bfs_oracle_z2():
    # brute-force oracle: minimize total weight over all words up to length 8
    z2 = make_group(GroupSpec.free_abelian(2))
    gens = standard_generators(z2)
    weights = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    best = {(0, 0): Fraction(0)}
    frontier = {(0, 0): Fraction(0)}
    for _ in range(8):
        nxt = {}
        for x, c in frontier.items():
            for a, w in zip(gens.elements, weights):
                y = z2.mul(x, a)
                cy = c + w
                if cy <= 8 and cy < best.get(y, Fraction(10**9)):
                    best[y] = cy
                    nxt[y] = cy
        frontier = nxt
    rep = explore_ball(z2, gens, weights_of(weights), radius=8)
    assert rep.lengths == dict(sorted(best.items(), key=lambda kv: (kv[1], kv[0])))


def heap_search(group, gens, weights, radius, element_cap):
    """The single (cost, element) heap search that the level buckets replaced.

    Returns (lengths, truncated, boundary) as ``explore_ball`` reports them.
    """
    scale = math.lcm(*(w.denominator for w in weights))
    int_weights = [int(w * scale) for w in weights]
    int_radius = math.floor(radius * scale)
    settled = {}
    best = {group.identity: 0}
    heap = [(0, group.identity)]
    truncated = False
    boundary_int = None
    while heap:
        cost, x = heapq.heappop(heap)
        if x in settled:
            continue
        if cost > int_radius:
            boundary_int = cost
            break
        if len(settled) >= element_cap:
            truncated = True
            boundary_int = cost
            break
        settled[x] = cost
        for a, w in zip(gens.elements, int_weights):
            y = group.mul(x, a)
            c = cost + w
            if c <= int_radius and (y not in settled) and c < best.get(y, c + 1):
                best[y] = c
                heapq.heappush(heap, (c, y))
    lengths = {x: Fraction(c, scale) for x, c in sorted(settled.items(), key=lambda kv: (kv[1], kv[0]))}
    return lengths, truncated, None if boundary_int is None else Fraction(boundary_int, scale)


def spheres_by_value(lengths):
    """Level sets grouped by value alone, one hash per element."""
    acc = {}
    for x, v in lengths.items():
        acc.setdefault(v, []).append(x)
    return {v: tuple(xs) for v, xs in sorted(acc.items())}


SEARCH_GROUPS = [GroupSpec.free_abelian(1), GroupSpec.free_abelian(2), GroupSpec.free(2),
                 GroupSpec.heisenberg(), GroupSpec.finite_abelian([2, 3]),
                 GroupSpec.finite_abelian([5]), GroupSpec.symmetric(3)]
SEARCH_WEIGHTS = (st.sampled_from([0, 1, 2, 3, Fraction(1, 2), Fraction(2, 3), 10**9])
                  | st.fractions(min_value=0, max_value=4, max_denominator=6))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_level_buckets_match_the_heap_search(data):
    group = make_group(data.draw(st.sampled_from(SEARCH_GROUPS)))
    gens = standard_generators(group)
    weights = data.draw(st.lists(SEARCH_WEIGHTS, min_size=len(gens.elements),
                                 max_size=len(gens.elements)))
    radius = data.draw(st.sampled_from([0, 10**9]) | st.fractions(min_value=0, max_value=8,
                                                                  max_denominator=4))
    cap = data.draw(st.integers(min_value=1, max_value=300))
    rep = explore_ball(group, gens, weights_of(weights), radius, cap)
    lengths, truncated, boundary = heap_search(group, gens, [Fraction(w) for w in weights],
                                               Fraction(radius), cap)
    assert list(rep.lengths.items()) == list(lengths.items())
    assert (rep.truncated, rep.boundary) == (truncated, boundary)
    assert list(rep.spheres().items()) == list(spheres_by_value(lengths).items())
    # every element of one level holds the same Fraction object
    assert len({id(v) for v in rep.lengths.values()}) == len(set(rep.lengths.values()))


def test_cap_inside_a_level_keeps_the_least_elements():
    # level 1 of Z is queued as (1,) then (-1,); a cap of 2 keeps (-1,), the lesser one
    z = make_group(GroupSpec.free_abelian(1))
    gens = standard_generators(z)
    rep = explore_ball(z, gens, WeightFunction.constant(2), radius=3, element_cap=2)
    assert rep.lengths == {(0,): 0, (-1,): 1}
    assert rep.truncated and rep.boundary == 1
    assert (rep.lengths, rep.truncated, rep.boundary) == heap_search(z, gens, [Fraction(1)] * 2, 3, 2)


def test_zero_weight_step_settles_on_the_open_level():
    # +1 costs nothing, so a zero-weight step pushes (1,), (2,), ... into level 0, each
    # settling after the element that reached it, before (-1,) opens level 1
    z = make_group(GroupSpec.free_abelian(1))
    gens = standard_generators(z)
    rep = explore_ball(z, gens, weights_of([0, 1]), radius=2, element_cap=5)
    assert rep.lengths == {(k,): 0 for k in range(5)}
    assert rep.truncated and rep.boundary == 0
    assert (rep.lengths, rep.truncated, rep.boundary) == heap_search(
        z, gens, [Fraction(0), Fraction(1)], 2, 5)


def test_spheres_join_equal_levels_held_apart():
    # equal levels as distinct Fraction objects, one of them out of order
    rep = dataclasses.replace(line_report(radius=0), lengths={
        (0,): Fraction(0), (1,): Fraction(1), (-1,): Fraction(2), (2,): Fraction(2, 1),
        (-2,): Fraction(4, 2), (3,): Fraction(3, 3), (4,): Fraction(4)})
    assert rep.lengths[(1,)] is not rep.lengths[(3,)]
    assert rep.spheres() == spheres_by_value(rep.lengths)
    assert rep.spheres()[Fraction(1)] == ((1,), (3,))
    assert rep.spheres()[Fraction(2)] == ((-1,), (2,), (-2,))


def test_summability_over_levels_matches_the_per_element_sum():
    heis = make_group(GroupSpec.heisenberg())
    reps = [
        line_report(radius=9),
        explore_ball(heis, standard_generators(heis), WeightFunction.enumerated(4), radius=12),
        # equal levels as distinct objects: each run takes its own term
        dataclasses.replace(line_report(radius=4), lengths={
            (0,): Fraction(0), (1,): Fraction(1), (-1,): Fraction(2), (2,): Fraction(2, 1),
            (3,): Fraction(3), (-2,): Fraction(4), (4,): Fraction(8, 2)}),
    ]
    for rep in reps:
        per_element = math.fsum(math.exp(-float(v)) for v in rep.lengths.values())
        assert summability_partial_sums(rep).partial == per_element


def test_truncation_and_boundary():
    f2 = make_group(GroupSpec.free(2))
    rep = explore_ball(f2, standard_generators(f2), WeightFunction.constant(4), radius=10,
                       element_cap=50)
    assert rep.truncated
    assert rep.boundary is not None
    for x, v in rep.lengths.items():
        assert rep.is_final(x) == (v < rep.boundary)
    # some settled value sits at the boundary cost and is not final
    at_boundary = [x for x, v in rep.lengths.items() if v >= rep.boundary]
    if at_boundary:
        with pytest.raises(UnexploredError):
            rep.final_length(at_boundary[0])
    assert rep.max_complete_integer_level() < 10


def sphere_complete(report, level):
    """Every element of length ``level`` is in the table: within the radius, below any boundary."""
    return level <= report.radius and (report.boundary is None or level < report.boundary)


def scanned_complete_level(report):
    """Reference: step down from floor(radius) until a level is complete."""
    n = int(report.radius)
    if report.boundary is not None:
        while n >= 0 and not sphere_complete(report, n):
            n -= 1
    return n


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.fractions(min_value=0, max_value=200, max_denominator=12),
    st.none() | st.fractions(min_value=0, max_value=250, max_denominator=12),
)
def test_max_complete_level_matches_scan(radius, boundary):
    rep = dataclasses.replace(line_report(radius=0), radius=radius, boundary=boundary)
    assert rep.max_complete_integer_level() == scanned_complete_level(rep)


def test_max_complete_level_of_truncated_huge_radius():
    f2 = make_group(GroupSpec.free(2))
    rep = explore_ball(f2, standard_generators(f2), WeightFunction.enumerated(4), radius=10**9,
                       element_cap=1000)
    assert rep.truncated
    start = time.perf_counter()
    level = rep.max_complete_integer_level()
    bound = sphere_bound_check(rep)
    assert time.perf_counter() - start < 1.0
    assert level == math.ceil(rep.boundary) - 1 == bound.max_level
    assert all(sphere_complete(rep, n) for n in range(level + 1))
    assert not sphere_complete(rep, level + 1)


def test_radius_zero_and_validation():
    z = make_group(GroupSpec.free_abelian(1))
    gens = standard_generators(z)
    rep = explore_ball(z, gens, WeightFunction.enumerated(2), radius=0)
    assert rep.lengths == {(0,): Fraction(0)}
    with pytest.raises(ValueError):
        explore_ball(z, gens, WeightFunction.enumerated(2), radius=-1)
    with pytest.raises(ValueError):
        explore_ball(z, gens, WeightFunction.enumerated(3), radius=1)  # count mismatch
    with pytest.raises(ValueError):
        weights_of([-1])
    with pytest.raises(ValueError):
        explore_ball(z, gens, WeightFunction.enumerated(2), radius=1, element_cap=0)


def test_rational_weights_exact_priorities():
    z = make_group(GroupSpec.free_abelian(1))
    gens = standard_generators(z)
    rep = explore_ball(z, gens, weights_of([Fraction(1, 3), Fraction(1, 2)]), radius=2)
    assert rep.final_length((3,)) == 1
    assert rep.final_length((-2,)) == 1
    assert rep.final_length((6,)) == 2


def test_subadditivity_sampled():
    rep = line_report()
    res = subadditivity_check(rep, samples=400, seed=3)
    assert res.passed and res.checked > 0
    heis = make_group(GroupSpec.heisenberg())
    reph = explore_ball(heis, standard_generators(heis), WeightFunction.enumerated(4), radius=10)
    resh = subadditivity_check(reph, samples=400, seed=3)
    assert resh.passed


def test_sphere_bound_line():
    rep = line_report(radius=4)
    out = sphere_bound_check(rep)
    got = {r.level: (r.count, r.bound) for r in out.rows}
    assert got == {1: (1, 1), 2: (2, 2), 3: (1, 4), 4: (2, 8)}
    assert out.passed


def test_sphere_bound_needs_injective_weights():
    z = make_group(GroupSpec.free_abelian(1))
    rep = explore_ball(z, standard_generators(z), WeightFunction.constant(2), radius=4)
    with pytest.raises(ValueError):
        sphere_bound_check(rep)


def test_summability_hand_value():
    rep = line_report(radius=3)
    out = summability_partial_sums(rep)
    # ball of radius 3: lengths 0,1,2,2,3
    expected = 1 + math.exp(-1) + 2 * math.exp(-2) + math.exp(-3)
    assert abs(out.partial - expected) < 1e-12
    assert out.passed
    r = 2.0 / math.e
    assert abs(out.closed_form - (1 + r / (2 * (1 - r)))) < 1e-12


def test_summability_stops_where_exp_underflows(monkeypatch):
    z2 = make_group(GroupSpec.finite_abelian([2]))
    rep = explore_ball(z2, standard_generators(z2), WeightFunction.enumerated(1), radius=10**5)
    terms = []
    ldexp = math.ldexp

    def counted(x, i):
        terms.append(i)
        return ldexp(x, i)

    monkeypatch.setattr(math, "ldexp", counted)
    out = summability_partial_sums(rep)
    monkeypatch.undo()
    # exp(-746) is 0.0, so the terms stop at n = 745 while the level stays the radius
    assert len(terms) == 745 and rep.max_complete_integer_level() == 10**5
    full = 1.0 + math.fsum(math.ldexp(math.exp(-n), n - 1) for n in range(1, 10**5 + 1))
    assert out.finite_bound == full and out.passed


def test_summability_rejects_truncated():
    f2 = make_group(GroupSpec.free(2))
    rep = explore_ball(f2, standard_generators(f2), WeightFunction.enumerated(4), radius=12,
                       element_cap=100)
    assert rep.truncated
    with pytest.raises(ValueError):
        summability_partial_sums(rep)


def test_nuclearity_gap_hand_values():
    z = make_group(GroupSpec.free_abelian(1))
    gens = standard_generators(z)
    out = nuclearity_witness(z, gens, WeightFunction.enumerated(2), radius=14)
    # base weights (1,2) -> companion (2,4): gap 1 at +1, gap 2 at -1
    gaps = {r.level: r.count for r in out.rows}
    assert gaps[0] == 1  # identity only
    assert gaps[1] == 1
    assert gaps[2] == 2
    assert out.passed
    r = 2.0 / math.e
    assert abs(out.closed_form - (1 + r / (2 * (1 - r) ** 2))) < 1e-12


@pytest.mark.parametrize("spec, weights, radius, cap", [
    (GroupSpec.free_abelian(1), None, 9, 10**5),
    (GroupSpec.heisenberg(), None, 6, 10**5),
    (GroupSpec.free(2), None, 12, 300),  # truncated: the shifted ball's boundary excludes elements
    (GroupSpec.free(2), [1, 1, 1, 1], 9, 19),  # two settled base elements lie at that boundary
])
def test_nuclearity_reads_the_shifted_ball_without_checks(monkeypatch, spec, weights, radius, cap):
    g = make_group(spec)
    gens = standard_generators(g)
    w = weights_of(weights) if weights else WeightFunction.enumerated(len(gens.elements))
    base = explore_ball(g, gens, w, radius, cap)
    shifted = explore_ball(g, gens, w.shifted_by_index(), radius, cap)
    final = [shifted.is_final(x) for x, _ in base.final_items()]
    calls = []
    monkeypatch.setattr(g, "check", lambda x: calls.append(x) or x)
    out = nuclearity_witness(g, gens, w, radius, cap)
    # both balls hold canonical elements, so no element is checked again
    assert calls == []
    assert (out.region_size, out.excluded) == (final.count(True), final.count(False))
    assert out.excluded > 0


def test_nuclearity_needs_integer_weights():
    z = make_group(GroupSpec.free_abelian(1))
    gens = standard_generators(z)
    with pytest.raises(ValueError):
        nuclearity_witness(z, gens, weights_of([Fraction(1, 2), Fraction(1)]), radius=2)


def heis_matrix_power(mat, n):
    out = np.eye(3, dtype=object)
    step = mat if n >= 0 else np.array(
        [[1, -mat[0][1], mat[0][1] * mat[1][2] - mat[0][2]], [0, 1, -mat[1][2]], [0, 0, 1]],
        dtype=object,
    )
    for _ in range(abs(n)):
        out = out @ step
    return out


def test_heisenberg_witness_matrix_oracle():
    heis = make_group(GroupSpec.heisenberg())
    out = heisenberg_witness(heis, 6, 1)
    A = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=object)
    B = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1]], dtype=object)
    for row in out.rows:
        n = row.n
        mat = (
            heis_matrix_power(B, -n) @ heis_matrix_power(A, n)
            @ heis_matrix_power(B, n) @ heis_matrix_power(A, -n)
        )
        a, b, c = row.product
        assert [mat[0][1], mat[1][2], mat[0][2]] == [a, b, c]
        assert row.product == (0, 0, n * n)
    assert out.products_pass


@pytest.mark.parametrize("constant,first", [
    (1, 6), (2, 12), (Fraction(1, 2), 3), (0, 1),
    # 4C is the double nearest 6 ln 2, which lies just below it: a float comparison says 7
    (Fraction(6 * math.log(2)) / 4, 6),
])
def test_first_violation_scan(constant, first):
    # least n with n * ln 2 > 4 C; no ties since ln 2 is irrational
    heis = make_group(GroupSpec.heisenberg())
    out = heisenberg_witness(heis, first, constant)
    assert out.first_violation == first
    assert [r.violated for r in out.rows] == [n == first for n in range(1, first + 1)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6))
def test_first_violation_matches_mpmath(constant):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        ratio = 4 * mpmath.mpf(constant.numerator) / constant.denominator / mpmath.log(2)
        expected = int(mpmath.floor(ratio)) + 1
    heis = make_group(GroupSpec.heisenberg())
    assert heisenberg_witness(heis, 1, constant).first_violation == expected


def test_witness_validation():
    z = make_group(GroupSpec.free_abelian(1))
    with pytest.raises(ValueError):
        heisenberg_witness(z, 3, 1)
    heis = make_group(GroupSpec.heisenberg())
    with pytest.raises(ValueError):
        heisenberg_witness(heis, 0, 1)
    with pytest.raises(ValueError):
        heisenberg_witness(heis, 3, -1)


def test_weight_function_helpers():
    w = WeightFunction.enumerated(3)
    assert [int(v) for v in w.values] == [1, 2, 3]
    assert w.is_injective_integer
    shifted = w.shifted_by_index()
    assert [int(v) for v in shifted.values] == [2, 4, 6]
    assert not WeightFunction.constant(2).is_injective_integer
    assert not weights_of([Fraction(1, 2), Fraction(1)]).is_integer
