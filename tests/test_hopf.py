"""Hopf structure tensors, Fourier transforms, and the duality cycle."""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from dualitylab import (
    GroupSpec,
    make_backend,
    make_group,
)
from dualitylab.hopf import (
    BRUTE_FORCE_DIM_CAP,
    DUALITY_ORDER_CAP,
    TENSOR_DIM_CAP,
    check_hopf_axioms,
    check_linear_hom,
    dual_group,
    dual_hopf,
    duality_cycle,
    fourier,
    function_algebra,
    group_algebra,
    group_part,
    hopf_equal,
    product_iso_check,
    tensor_hopf,
    unitarity_check,
)

AXIOMS = ("associativity", "unit", "coassociativity", "counit", "bialgebra", "antipode")
HOM_CHECKS = ("multiplicative", "unital", "comultiplicative", "counital", "antipode")
STAGES = ("transform-hom", "transpose-hom", "transpose-columns", "unitarity", "cycle-identity")


def exact_backend_for(group):
    order = 1
    for x in group.elements():
        k = 1
        y = x
        while y != group.identity:
            y = group.mul(y, x)
            k += 1
        order = order * k // math.gcd(order, k)
    return make_backend("cyclotomic", order=order)


GROUPS = [
    GroupSpec.finite_abelian([2]),
    GroupSpec.finite_abelian([4]),
    GroupSpec.finite_abelian([2, 2]),
    GroupSpec.finite_abelian([6]),
    GroupSpec.symmetric(3),
]


@pytest.mark.parametrize("spec", GROUPS, ids=lambda s: s.label or str(s.kind))
def test_axioms_exact(spec):
    g = make_group(spec)
    b = exact_backend_for(g)
    for h in (function_algebra(g, b), group_algebra(g, b)):
        for c in check_hopf_axioms(h):
            assert c.passed and c.residual == 0.0, c
        for c in check_hopf_axioms(dual_hopf(h)):
            assert c.passed and c.residual == 0.0, c


def test_axiom_names_and_float_backend():
    g = make_group(GroupSpec.finite_abelian([4]))
    h = function_algebra(g, make_backend("float"))
    out = check_hopf_axioms(h)
    assert tuple(c.name for c in out) == AXIOMS
    for c in out:
        assert c.passed and c.residual <= 1e-9


def test_corrupted_comultiplication_detected():
    g = make_group(GroupSpec.finite_abelian([3]))
    h = function_algebra(g, make_backend("cyclotomic", order=3))
    comul = dict(h.comul)
    row = dict(comul[0])
    key = next(iter(row))
    row[key] = h.backend.add(row[key], h.backend.one)
    comul[0] = row
    bad = dataclasses.replace(h, comul=comul)
    failed = [c.name for c in check_hopf_axioms(bad) if not c.passed]
    assert failed  # tampering with one structure constant must trip something
    assert "coassociativity" in failed or "counit" in failed


def test_dual_swaps_the_two_constructions():
    g = make_group(GroupSpec.symmetric(3))
    b = make_backend("cyclotomic", order=6)
    h = function_algebra(g, b)
    k = group_algebra(g, b)
    assert hopf_equal(dual_hopf(h), k) == (True, 0.0)
    assert hopf_equal(dual_hopf(k), h) == (True, 0.0)
    assert hopf_equal(dual_hopf(dual_hopf(h)), h) == (True, 0.0)
    same, residual = hopf_equal(h, k)  # S3 is nonabelian, so these differ
    assert not same and residual > 0.5


def test_fourier_z2_exact_matrix():
    g = make_group(GroupSpec.finite_abelian([2]))
    b = make_backend("cyclotomic", order=2)
    phi = fourier(g, b)
    one, minus = b.one, b.from_int(-1)
    rows = tuple(tuple(phi.columns[j][i] for j in range(2)) for i in range(2))
    assert rows == ((one, one), (one, minus))


@pytest.mark.parametrize("orders", [[6], [2, 2], [4], [2, 3]])
def test_fourier_matches_character_formula(orders):
    # rows are characters: columns[j][i] = prod_k exp(2 pi i m_k x_k / n_k)
    g = make_group(GroupSpec.finite_abelian(orders))
    b = make_backend("float")
    phi = fourier(g, b)
    elems = list(g.elements())
    for i, m in enumerate(elems):
        for j, x in enumerate(elems):
            expect = 1 + 0j
            for mk, xk, nk in zip(m, x, orders):
                expect *= cmath.exp(2j * cmath.pi * mk * xk / nk)
            assert abs(phi.columns[j][i] - expect) < 1e-12


def test_dual_group_character_values():
    g = make_group(GroupSpec.finite_abelian([4]))
    d = dual_group(g)
    b = make_backend("float")
    for m in range(4):
        for x in range(4):
            got = d.value((m,), (x,), b)
            assert abs(got - 1j ** (m * x)) < 1e-12


def test_fourier_is_hom_and_unitary():
    for orders in ([2], [4], [2, 2], [6]):
        g = make_group(GroupSpec.finite_abelian(orders))
        b = exact_backend_for(g)
        phi = fourier(g, b)
        out = check_linear_hom(phi)
        assert tuple(c.name for c in out) == HOM_CHECKS
        for c in out:
            assert c.passed and c.residual == 0.0, (orders, c)
        u = unitarity_check(phi, g.order)
        assert u.passed and u.residual == 0.0


def test_fourier_unitarity_numpy_oracle():
    g = make_group(GroupSpec.finite_abelian([6]))
    b = make_backend("float")
    phi = fourier(g, b)
    m = np.array([[phi.columns[j][i] for j in range(6)] for i in range(6)], dtype=complex)
    assert np.allclose(m @ m.conj().T, 6 * np.eye(6), atol=1e-12)


def test_fourier_rejects_nonabelian():
    s3 = make_group(GroupSpec.symmetric(3))
    with pytest.raises(ValueError):
        dual_group(s3)
    with pytest.raises(ValueError):
        fourier(s3, make_backend("float"))
    with pytest.raises(ValueError):
        duality_cycle(s3, make_backend("float"))


@pytest.mark.parametrize("orders", [[1], [2], [6], [2, 2], [12]])
def test_duality_cycle_exact(orders):
    g = make_group(GroupSpec.finite_abelian(orders))
    cyc = duality_cycle(g, exact_backend_for(g))
    assert tuple(s.name for s in cyc.stages) == STAGES
    for s in cyc.stages:
        assert s.passed and s.residual == 0.0, (orders, s)
    assert cyc.passed


def test_duality_cycle_float():
    g = make_group(GroupSpec.finite_abelian([2]))
    cyc = duality_cycle(g, make_backend("float"))
    assert cyc.passed


def test_every_perturbation_detected():
    g = make_group(GroupSpec.finite_abelian([4]))
    b = make_backend("cyclotomic", order=4)
    for i in range(4):
        for j in range(4):
            cyc = duality_cycle(g, b, perturb=(i, j))
            assert not cyc.passed, (i, j)


def test_duality_order_cap():
    g = make_group(GroupSpec.finite_abelian([DUALITY_ORDER_CAP + 1]))
    with pytest.raises(ValueError):
        duality_cycle(g, make_backend("float"))


def scan_multiplicative_functions(group, roots):
    """Brute-force oracle: every map into the given root pool, f(e) = 1.

    Complete for grouplikes of the function algebra: f(x) f(x^-1) = f(e) = 1
    forces nonzero values, and f(x)^|G| = f(x^|G|) = 1 pins them to |G|-th
    roots of unity.
    """
    elems = [x for x in group.elements() if x != group.identity]
    found = 0
    for combo in itertools.product(roots, repeat=len(elems)):
        f = dict(zip(elems, combo))
        f[group.identity] = 1 + 0j
        ok = True
        for x in group.elements():
            for y in group.elements():
                if abs(f[group.mul(x, y)] - f[x] * f[y]) > 1e-9:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found += 1
    return found


def test_group_part_function_algebra_s3():
    g = make_group(GroupSpec.symmetric(3))
    b = make_backend("cyclotomic", order=6)
    h = function_algebra(g, b)
    roots = [cmath.exp(2j * cmath.pi * k / 6) for k in range(6)]
    expected = scan_multiplicative_functions(g, roots)
    assert expected == 2
    for mode in ("closed_form", "brute_force"):
        r = group_part(h, mode=mode)
        assert r.count == expected
        assert r.verified and r.closed_under_product
        assert r.worst_residual == 0.0


def test_group_part_group_algebra_deltas():
    g = make_group(GroupSpec.symmetric(3))
    b = make_backend("cyclotomic", order=6)
    h = group_algebra(g, b)
    for mode in ("closed_form", "brute_force"):
        r = group_part(h, mode=mode)
        assert r.count == g.order
        got = {frozenset(v.items()) for v in r.vectors}
        want = {frozenset(h.basis(i).items()) for i in range(h.dim)}
        assert got == want


def test_group_part_modes_agree_z4():
    g = make_group(GroupSpec.finite_abelian([4]))
    h = function_algebra(g, make_backend("cyclotomic", order=4))
    closed = group_part(h, mode="closed_form")
    brute = group_part(h, mode="brute_force")
    assert closed.count == brute.count == 4
    assert ({frozenset(v.items()) for v in closed.vectors}
            == {frozenset(v.items()) for v in brute.vectors})


def test_group_part_validation():
    g = make_group(GroupSpec.finite_abelian([4]))
    h = function_algebra(g, make_backend("float"))
    with pytest.raises(ValueError):
        group_part(h, mode="guess")
    big = make_group(GroupSpec.finite_abelian([BRUTE_FORCE_DIM_CAP + 1]))
    hbig = function_algebra(big, make_backend("float"))
    with pytest.raises(ValueError):
        group_part(hbig, mode="brute_force")


def test_tensor_of_cyclic_factors():
    b = make_backend("cyclotomic", order=6)
    z2 = make_group(GroupSpec.finite_abelian([2]))
    z3 = make_group(GroupSpec.finite_abelian([3]))
    t = tensor_hopf(function_algebra(z2, b), function_algebra(z3, b))
    assert t.dim == 6
    for c in check_hopf_axioms(t):
        assert c.passed and c.residual == 0.0, c
    for c in product_iso_check(z2, z3, b):
        assert c.passed and c.residual == 0.0, c


def test_tensor_guards():
    z2 = make_group(GroupSpec.finite_abelian([2]))
    h = function_algebra(z2, make_backend("float"))
    k = function_algebra(z2, make_backend("cyclotomic", order=2))
    with pytest.raises(ValueError):
        tensor_hopf(h, k)
    # equal-config backends are interchangeable even as distinct objects
    k2 = function_algebra(z2, make_backend("float"))
    assert tensor_hopf(h, k2).dim == 4
    side = 1
    while side * side <= TENSOR_DIM_CAP:
        side *= 2
    big = function_algebra(make_group(GroupSpec.finite_abelian([side])), make_backend("float"))
    with pytest.raises(ValueError):
        tensor_hopf(big, big)
