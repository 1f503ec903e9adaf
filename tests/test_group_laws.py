"""Each finite group's law on element indices (``Group.law``, read through ``hopf._cayley_table``)
against a table made from the group's own ``mul``: index arithmetic on a finite abelian group and
permutation composition on a symmetric group give what one ``mul`` per cell gives, and a direct
product keeps that loop.  The character table's exponent product gives the values of its formula,
summed entry by entry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitylab import hopf
from dualitylab.groups import GroupSpec, direct_product, make_group
from dualitylab.hopf import dual_group
from dualitylab.reports import ConfigError
from dualitylab.scalars import make_backend


def mul_table(g):
    """(elements, law, inverse, identity) in the form ``_cayley_table`` returns, each cell g.mul."""
    elems = list(g.elements())
    index = {x: i for i, x in enumerate(elems)}
    law = np.array([index[g.mul(s, t)] for s in elems for t in elems], dtype=np.intp).reshape(len(elems), -1)
    law.flags.writeable = False
    return elems, law, [index[g.inv(x)] for x in elems], index[g.identity]


def assert_same_table(got, want):
    (elems, law, inverse, e), (want_elems, want_law, want_inverse, want_e) = got, want
    assert (elems, inverse, e) == (want_elems, want_inverse, want_e)
    assert law.dtype == want_law.dtype and law.shape == want_law.shape
    assert not law.flags.writeable
    assert (law == want_law).all()


@st.composite
def abelian_orders(draw, cap=200):
    """1 to 4 cyclic orders, 1s included, whose product is at most cap."""
    orders = []
    for _ in range(draw(st.integers(1, 4))):
        orders.append(draw(st.integers(1, cap)))
        cap //= orders[-1]
    return orders


@settings(max_examples=60, deadline=None)
@given(abelian_orders())
def test_abelian_law_is_the_mul_table(orders):
    g = make_group(GroupSpec.finite_abelian(orders))
    assert_same_table(hopf._cayley_table(g), mul_table(g))


@pytest.mark.parametrize("degree", range(1, 7))
def test_symmetric_law_is_the_mul_table(degree):
    g = make_group(GroupSpec.symmetric(degree))
    assert_same_table(hopf._cayley_table(g), mul_table(g))


def z(*orders):
    return make_group(GroupSpec.finite_abelian(orders))


def s(degree):
    return make_group(GroupSpec.symmetric(degree))


@pytest.mark.parametrize("build", [
    lambda: direct_product(z(2), z(3)),
    lambda: direct_product(z(1), s(3)),
    lambda: direct_product(s(3), z(4, 1, 2)),
    lambda: direct_product(direct_product(z(2), s(3)), z(3)),
    lambda: direct_product(s(2), direct_product(z(2, 2), s(3))),
], ids=["Z2xZ3", "Z1xS3", "S3xZ4x1x2", "(Z2xS3)xZ3", "S2x(Z2x2xS3)"])
def test_product_law_is_its_own_mul_loop(build):
    g = build()
    calls = []
    mul = g.mul
    g.mul = lambda x, y: calls.append(None) or mul(x, y)
    table = hopf._cayley_table(g)
    # one product of the product group per cell: its law is not put together from the factors'
    assert len(calls) == g.order**2
    assert_same_table(table, mul_table(g))


def generic_character_table(group, backend):
    """The table by its formula: the value of character i of dual_group(group) at element j is the
    exponent's root raised to sum_k m_k t_k (exponent / n_k), one sum per entry."""
    e = group.exponent
    roots = [backend.root(k, e) for k in range(e)]
    return {j: {i: roots[sum(mk * tk * (e // nk) for mk, tk, nk in zip(m, t, group.orders)) % e]
                for i, m in enumerate(dual_group(group).elements())}
            for j, t in enumerate(group.elements())}


ORDERS = [[n] for n in range(1, 61)] + [[1, 1], [2, 2], [3, 6], [2, 1, 4], [4, 6], [2, 3, 5], [2, 2, 2, 3]]


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
@pytest.mark.parametrize("orders", ORDERS, ids=str)
def test_character_table_is_the_formulas(orders, kind):
    g = z(*orders)
    b = make_backend("float") if kind == "float" else make_backend("cyclotomic", order=g.exponent)
    # the same values, to the bit on floats, under the same keys in the same order
    assert repr(hopf._character_table(g, b)) == repr(generic_character_table(g, b))


def test_character_table_needs_a_finite_abelian_group():
    with pytest.raises(ConfigError) as caught:
        hopf._character_table(s(3), make_backend("float"))
    assert caught.value.errors[0][0] == "kind"
