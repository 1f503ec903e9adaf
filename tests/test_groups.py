"""Group constructions: laws against independent oracles, validation, payloads."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitylab import (
    Constant,
    ExpLength,
    GroupSpec,
    Inverse,
    WeightedVector,
    WeightFunction,
    direct_product,
    element_from_payload,
    explore_ball,
    make_generator_set,
    make_group,
    sampled_submultiplicativity,
    standard_generators,
    weighted_property_trials,
)
from dualitylab.groups import walk


def heis_matrix(t):
    # the triple (a, b, c) as an upper unitriangular integer matrix
    a, b, c = t
    return np.array([[1, a, c], [0, 1, b], [0, 0, 1]], dtype=object)


def test_heisenberg_law_matches_matrix_product():
    g = make_group(GroupSpec.heisenberg())
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = tuple(int(v) for v in rng.integers(-9, 10, size=3))
        y = tuple(int(v) for v in rng.integers(-9, 10, size=3))
        prod = g.mul(x, y)
        expected = heis_matrix(x) @ heis_matrix(y)
        assert heis_matrix(prod).tolist() == expected.tolist()
        inv = g.inv(x)
        assert (heis_matrix(x) @ heis_matrix(inv)).tolist() == np.eye(3, dtype=object).tolist()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.tuples(*([st.integers(-50, 50)] * 9)))
def test_heisenberg_axioms_random(flat):
    g = make_group(GroupSpec.heisenberg())
    x, y, z = flat[0:3], flat[3:6], flat[6:9]
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
    assert g.mul(x, g.identity) == x
    assert g.mul(g.inv(x), x) == g.identity


@pytest.mark.parametrize("orders", [(1,), (2,), (4,), (2, 2), (6,), (2, 3)])
def test_finite_abelian_axioms_exhaustive(orders):
    g = make_group(GroupSpec.finite_abelian(orders))
    elems = list(g.elements())
    assert len(elems) == g.order
    for x in elems:
        assert g.mul(x, g.identity) == x
        assert g.mul(x, g.inv(x)) == g.identity
    for x, y, z in itertools.product(elems[:4], elems, elems[:4]):
        assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


def test_symmetric_composition_oracle():
    g = make_group(GroupSpec.symmetric(4))
    rng = np.random.default_rng(11)
    elems = list(g.elements())
    assert len(elems) == 24
    for _ in range(100):
        x = elems[rng.integers(len(elems))]
        y = elems[rng.integers(len(elems))]
        # independent composition: apply y, then x, pointwise
        expected = tuple(x[y[i]] for i in range(4))
        assert g.mul(x, y) == expected
    for x in elems:
        assert g.mul(x, g.inv(x)) == g.identity


def test_symmetric_full_axioms_small():
    g = make_group(GroupSpec.symmetric(3))
    elems = list(g.elements())
    for x, y, z in itertools.product(elems, elems, elems):
        assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


def test_free_group_reduction():
    g = make_group(GroupSpec.free(2))
    assert g.mul((1,), (-1,)) == ()
    assert g.mul((1, 2), (-2, -1)) == ()
    assert g.mul((1, 2), (2,)) == (1, 2, 2)
    assert g.mul((1, -2), (2, 1)) == (1, 1)
    assert g.inv((1, -2, 1)) == (-1, 2, -1)
    with pytest.raises(ValueError):
        g.check((1, -1))  # not reduced
    with pytest.raises(ValueError):
        g.check((3,))  # letter outside the rank
    with pytest.raises(ValueError):
        g.check((0,))


def test_free_abelian_vectors():
    g = make_group(GroupSpec.free_abelian(2))
    assert g.mul((1, 2), (3, -5)) == (4, -3)
    assert g.inv((1, -2)) == (-1, 2)
    assert g.identity == (0, 0)


def test_power_matches_naive():
    g = make_group(GroupSpec.heisenberg())
    x = (1, 2, 3)
    acc = g.identity
    for n in range(12):
        assert g.power(x, n) == acc
        acc = g.mul(acc, x)
    assert g.power(x, -3) == g.inv(g.power(x, 3))


def test_validation_errors():
    with pytest.raises(ValueError):
        GroupSpec.finite_abelian([])
    with pytest.raises(ValueError):
        GroupSpec.finite_abelian([0])
    with pytest.raises(ValueError):
        GroupSpec.symmetric(7)  # above the degree cap
    with pytest.raises(ValueError):
        GroupSpec(kind="nosuch")
    # the rules report field-relative paths, which the CLI roots under its key
    with pytest.raises(ValueError) as exc:
        GroupSpec.finite_abelian([3, 0])
    assert exc.value.errors == [("orders[1]", "must be >= 1, got 0")]
    with pytest.raises(ValueError) as exc:
        GroupSpec(kind="free", rank=2, degree=3)
    assert exc.value.errors == [("degree", "not a free field")]
    z6 = make_group(GroupSpec.finite_abelian([6]))
    with pytest.raises(ValueError):
        z6.check((6,))
    with pytest.raises(ValueError):
        z6.check((0, 0))
    s3 = make_group(GroupSpec.symmetric(3))
    with pytest.raises(ValueError):
        s3.check((0, 0, 1))
    heis = make_group(GroupSpec.heisenberg())
    with pytest.raises(ValueError):
        heis.check((1, 2))
    with pytest.raises(ValueError):
        heis.elements()  # infinite


def test_standard_generators():
    heis = make_group(GroupSpec.heisenberg())
    gens = standard_generators(heis)
    assert gens.elements == ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
    z = make_group(GroupSpec.free_abelian(1))
    assert standard_generators(z).elements == ((1,), (-1,))
    f2 = make_group(GroupSpec.free(2))
    assert standard_generators(f2).elements == ((1,), (-1,), (2,), (-2,))
    s3 = make_group(GroupSpec.symmetric(3))
    assert standard_generators(s3).elements == ((1, 0, 2), (1, 2, 0))
    z22 = make_group(GroupSpec.finite_abelian([2, 2]))
    assert standard_generators(z22).elements == ((1, 0), (0, 1))


def test_generator_set_validation():
    z6 = make_group(GroupSpec.finite_abelian([6]))
    with pytest.raises(ValueError):
        make_generator_set(z6, [(1,), (1,)])  # duplicate
    with pytest.raises(ValueError):
        make_generator_set(z6, [(2,)])  # generates only the even residues
    make_generator_set(z6, [(1,)])
    make_generator_set(z6, [(1,), (5,)])


def test_walk_order_and_parent_edges():
    z6 = make_group(GroupSpec.finite_abelian([6]))
    tree = walk((0,), [(1,), (5,)], z6.mul)
    # breadth first: each element is expanded by every generator in order
    assert list(tree.items()) == [
        ((0,), None),
        ((1,), ((0,), (1,))),
        ((5,), ((0,), (5,))),
        ((2,), ((1,), (1,))),
        ((4,), ((5,), (5,))),
        ((3,), ((2,), (1,))),
    ]
    assert walk((0,), [], z6.mul) == {(0,): None}
    # table indices, stepping through a law; every edge steps to the element it is keyed by
    law = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    tree = walk(0, [2], lambda x, g: law[x][g])
    assert tree == {0: None, 2: (0, 2)}
    s4 = make_group(GroupSpec.symmetric(4))
    tree = walk(s4.identity, standard_generators(s4).elements, s4.mul)
    assert len(tree) == 24
    assert all(s4.mul(*edge) == y for y, edge in tree.items() if edge is not None)


@pytest.mark.parametrize("spec, gens, reached", [
    (GroupSpec.finite_abelian([6]), [(1,)], 6),
    (GroupSpec.finite_abelian([6]), [(1,), (5,)], 6),
    (GroupSpec.finite_abelian([6]), [(2,)], 3),
    (GroupSpec.finite_abelian([2, 6]), [(1, 0), (0, 1), (0, 5)], 12),
    (GroupSpec.symmetric(4), [(1, 0, 2, 3), (1, 2, 3, 0), (3, 0, 1, 2)], 24),
    (GroupSpec.symmetric(3), [], 1),
])
def test_generator_set_multiplies_each_reached_element_by_each_generator(monkeypatch, spec, gens, reached):
    g = make_group(spec)
    calls = []
    mul = g.mul
    monkeypatch.setattr(g, "mul", lambda x, y: calls.append((x, y)) or mul(x, y))
    if reached < g.order:
        with pytest.raises(ValueError, match=f"reach only {reached} of"):
            make_generator_set(g, gens)
    else:
        make_generator_set(g, gens)
    assert len(calls) == reached * len(gens)


def test_direct_product_enumeration_row_major():
    z2 = make_group(GroupSpec.finite_abelian([2]))
    z3 = make_group(GroupSpec.finite_abelian([3]))
    p = direct_product(z2, z3)
    assert p.order == 6
    elems = list(p.elements())
    assert elems == [((a,), (b,)) for a in range(2) for b in range(3)]
    x, y = ((1,), (2,)), ((1,), (1,))
    assert p.mul(x, y) == ((0,), (0,))
    assert p.inv(x) == ((1,), (1,))


def generators_of(g):
    """The standard generators, or for a direct product each factor's paired with the other's identity."""
    if g.kind == "product":
        return ([(x, g.right.identity) for x in generators_of(g.left)]
                + [(g.left.identity, y) for y in generators_of(g.right)])
    return standard_generators(g).elements


@pytest.mark.parametrize("specs", [
    (GroupSpec.finite_abelian([2, 3]),), (GroupSpec.symmetric(3),), (GroupSpec.heisenberg(),),
    (GroupSpec.free(2),), (GroupSpec.free_abelian(2),),
    (GroupSpec.finite_abelian([2]), GroupSpec.symmetric(3)), (GroupSpec.symmetric(3), GroupSpec.free(2)),
], ids=["Z2xZ3", "S3", "Heis", "F2", "Z^2", "Z2xS3", "S3xF2"])
def test_group_data(specs):
    g = direct_product(*map(make_group, specs)) if len(specs) == 2 else make_group(*specs)
    for x in generators_of(g):
        assert g.mul(g.identity, x) == x == g.mul(x, g.identity)
    assert g.is_finite == (g.order is not None)
    if g.is_finite:
        assert g.order == len(list(g.elements()))
    else:
        with pytest.raises(ValueError):
            g.elements()
    # the kinds are listed in their one order, and each takes only its own size field
    with pytest.raises(ValueError) as exc:
        GroupSpec(kind="nosuch")
    kinds = "('finite_abelian', 'symmetric', 'heisenberg', 'free', 'free_abelian')"
    assert exc.value.errors == [("kind", f"unknown group kind 'nosuch' (expected one of {kinds})")]
    with pytest.raises(ValueError) as exc:
        GroupSpec(kind="finite_abelian", orders=[2], rank=1)
    assert exc.value.errors == [("rank", "not a finite_abelian field")]


def test_element_from_payload():
    heis = make_group(GroupSpec.heisenberg())
    assert element_from_payload(heis, [1, 2, 3]) == (1, 2, 3)
    z22 = make_group(GroupSpec.finite_abelian([2, 2]))
    assert element_from_payload(z22, [1, 0]) == (1, 0)
    z2 = make_group(GroupSpec.finite_abelian([2]))
    z3 = make_group(GroupSpec.finite_abelian([3]))
    p = direct_product(z2, z3)
    assert element_from_payload(p, [[1], [2]]) == ((1,), (2,))
    with pytest.raises(ValueError):
        element_from_payload(heis, [1, 2])


Z6 = make_group(GroupSpec.finite_abelian([6]))
BAD = (6,)  # residue out of range: Z6's mul would quietly reduce it


def z6_ball():
    return explore_ball(Z6, standard_generators(Z6), WeightFunction.enumerated(1), radius=3)


# mul and inv take canonical elements; these are the places where elements enter from a caller
BOUNDARIES = {
    "element_from_payload": lambda: element_from_payload(Z6, list(BAD)),
    "make_generator_set": lambda: make_generator_set(Z6, [(1,), BAD]),
    "power": lambda: Z6.power(BAD, 2),
    "format": lambda: Z6.format(BAD),
    "WeightedVector.from_items": lambda: WeightedVector.from_items(Z6, [(BAD, 1.0)]),
    "LengthReport.length": lambda: z6_ball().length(BAD),
    "LengthReport.final_length": lambda: z6_ball().final_length(BAD),
    "LengthReport.__contains__": lambda: BAD in z6_ball(),
    "Inverse.value": lambda: Inverse(ExpLength(z6_ball())).value(BAD),
    "sampled_submultiplicativity": lambda: sampled_submultiplicativity(Constant(2), [BAD], group=Z6),
    "weighted_property_trials": lambda: weighted_property_trials(
        Constant(2), Constant(3), [BAD], group=Z6, trials=1
    ),
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundaries_reject_malformed_elements(boundary):
    with pytest.raises(ValueError):
        BOUNDARIES[boundary]()
