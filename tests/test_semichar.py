"""Semicharacter combinators, sampled submultiplicativity, and majorization."""

import math
from fractions import Fraction

import pytest

from dualitylab import (
    Constant,
    ExpLength,
    GroupSpec,
    Inverse,
    Product,
    Scale,
    Sum,
    Max,
    UnexploredError,
    WeightFunction,
    build_semicharacter,
    explore_ball,
    majorization_check,
    majorize,
    make_group,
    sampled_submultiplicativity,
    standard_generators,
)


@pytest.fixture(scope="module")
def line():
    z = make_group(GroupSpec.free_abelian(1))
    rep = explore_ball(z, standard_generators(z), WeightFunction.enumerated(2), radius=14)
    return z, rep


def half_region(rep):
    # elements whose pairwise products stay inside the settled ball
    return [x for x, v in rep.lengths.items() if 2 * v <= 14]


def test_exp_length_values(line):
    _, rep = line
    f = ExpLength(rep)
    assert f((0,)) == 1.0
    assert abs(f((3,)) - math.exp(3)) < 1e-12
    assert abs(f((-2,)) - math.exp(4)) < 1e-12
    with pytest.raises(UnexploredError):
        f((15,))


def test_exp_length_submultiplicative(line):
    z, rep = line
    f = ExpLength(rep)
    res = sampled_submultiplicativity(f, half_region(rep), group=z, samples=400, seed=7)
    assert res.passed and res.checked > 0


def test_constant_and_scale(line):
    _, rep = line
    one = Constant(1)
    assert one((5,)) == 1.0
    with pytest.raises(ValueError):
        Constant(Fraction(1, 2))
    g = Scale(3, ExpLength(rep))
    assert abs(g((0,)) - 3.0) < 1e-12
    assert abs(g((1,)) - 3 * math.e) < 1e-12
    with pytest.raises(ValueError):
        Scale(0.5, one)


def test_sum_product_max(line):
    _, rep = line
    f = ExpLength(rep)
    c = Constant(2)
    x = (2,)
    assert abs(Sum(f, c)(x) - (f(x) + 2)) < 1e-12
    assert abs(Product(f, c)(x) - 2 * f(x)) < 1e-12
    assert abs(Max(f, c)(x) - max(f(x), 2.0)) < 1e-12
    s3 = make_group(GroupSpec.symmetric(3))
    other = ExpLength(explore_ball(s3, standard_generators(s3), WeightFunction.enumerated(2), radius=2))
    with pytest.raises(ValueError):
        Sum(f, other)  # mismatched home groups


def test_inverse_flips_argument(line):
    z, rep = line
    f = ExpLength(rep)
    h = Inverse(f, group=z)
    assert abs(h((2,)) - f((-2,))) < 1e-12
    assert abs(h((2,)) - math.exp(4)) < 1e-12


def test_majorize_recovers_weights(line):
    _, rep = line
    f = ExpLength(rep)
    w = majorize(f, rep.generators)
    # log f on generators is exactly 1 and 2; dyadic rounding keeps integers
    assert w.values == (Fraction(1), Fraction(2))
    checked, violations = majorization_check(f, rep)
    assert checked == len(rep.lengths)
    assert violations == ()


def test_majorize_scaled(line):
    _, rep = line
    f = Scale(math.e, ExpLength(rep))
    w = majorize(f, rep.generators)
    # scaling by e lifts each generator weight by at most 1
    for v, base in zip(w.values, (1, 2)):
        assert base <= v <= base + 1 + Fraction(1, 2**30)


def test_build_semicharacter_all_kinds(line):
    _, rep = line
    recipe = {
        "kind": "max",
        "args": [
            {"kind": "scale", "value": 2, "arg": {"kind": "expLength"}},
            {"kind": "sum", "args": [{"kind": "const", "value": 1},
                                     {"kind": "inverse", "arg": {"kind": "expLength"}}]},
            {"kind": "product", "args": [{"kind": "const", "value": 2},
                                         {"kind": "const", "value": 3}]},
        ],
    }
    f = build_semicharacter(recipe, rep)
    x = (2,)
    assert abs(f(x) - max(2 * math.exp(2), 1 + math.exp(4), 6.0)) < 1e-12


def test_build_semicharacter_errors(line):
    _, rep = line
    with pytest.raises(ValueError):
        build_semicharacter({"kind": "box"}, rep)
    with pytest.raises(ValueError):
        build_semicharacter({"kind": "sum", "args": [{"kind": "const", "value": 1}]}, rep)
    with pytest.raises(ValueError):
        build_semicharacter({"kind": "scale", "value": 2}, rep)  # missing arg
    with pytest.raises(ValueError):
        build_semicharacter({"kind": "const", "value": 1, "extra": 2}, rep)
    with pytest.raises(ValueError):
        build_semicharacter({"value": 1}, rep)
    with pytest.raises(ValueError, match="recipe.arg: not a const field"):
        build_semicharacter({"kind": "const", "arg": {"kind": "bogus"}}, rep)
    with pytest.raises(ValueError, match="recipe.value: not a expLength field"):
        build_semicharacter({"kind": "expLength", "value": [1, 0]}, rep)
    # const defaults its value to 1
    assert build_semicharacter({"kind": "const"}, rep)((5,)) == 1.0
