"""Hopf structure tensors, Fourier transforms, and the duality cycle."""

import cmath
import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualitylab import (
    GroupSpec,
    make_backend,
    make_group,
)
from dualitylab import cli, hopf
from dualitylab.cli import main
from dualitylab.reports import CheckResult
from dualitylab.scalars import ComplexFloatBackend, CyclotomicBackend, times
from dualitylab.hopf import (
    DUALITY_ORDER_CAP,
    TENSOR_DIM_CAP,
    check_hopf_axioms,
    check_linear_hom,
    compare,
    dual_group,
    dual_hopf,
    duality_cycle,
    fourier,
    function_algebra,
    group_algebra,
    group_part,
    hopf_equal,
    LinearMap,
    mul_vec,
    pair_mul,
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
        for c in itertools.chain(*check_hopf_axioms(h)):
            assert c.passed and c.residual == 0.0, c


def test_axiom_names_and_float_backend():
    g = make_group(GroupSpec.finite_abelian([4]))
    h = function_algebra(g, make_backend("float"))
    for out in check_hopf_axioms(h):
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
    failed = [c.name for c in check_hopf_axioms(bad)[0] if not c.passed]
    assert failed  # tampering with one structure constant must trip something
    assert "coassociativity" in failed or "counit" in failed


# The coalgebra checks before they became algebra checks of the dual, kept as
# oracles: each returns the verdict of the direct formula.


def direct_coassociativity(h):
    b = h.backend
    for i in range(h.dim):
        left, right = {}, {}
        for (a, c), x in h.comul.get(i, {}).items():
            for (p, q), y in h.comul.get(a, {}).items():
                left[(p, q, c)] = b.add(left.get((p, q, c), b.zero), b.mul(x, y))
            for (p, q), y in h.comul.get(c, {}).items():
                right[(a, p, q)] = b.add(right.get((a, p, q), b.zero), b.mul(x, y))
        if not compare(b, left, right)[0]:
            return False
    return True


def direct_counit(h):
    b = h.backend
    for i in range(h.dim):
        left, right = {}, {}
        for (a, c), x in h.comul.get(i, {}).items():
            if a in h.counit:
                left[c] = b.add(left.get(c, b.zero), b.mul(x, h.counit[a]))
            if c in h.counit:
                right[a] = b.add(right.get(a, b.zero), b.mul(x, h.counit[c]))
        if not (compare(b, left, h.basis(i))[0] and compare(b, right, h.basis(i))[0]):
            return False
    return True


def direct_comultiplicative(phi):
    h, k = phi.domain, phi.codomain
    b = h.backend
    for i in range(h.dim):
        lhs = {}
        for (a, c), x in h.comul.get(i, {}).items():
            for p, s in phi.columns.get(a, {}).items():
                for q, t in phi.columns.get(c, {}).items():
                    lhs[(p, q)] = b.add(lhs.get((p, q), b.zero), b.mul(b.mul(x, s), t))
        rhs = {}
        for t, x in phi.columns.get(i, {}).items():
            for key, y in k.comul.get(t, {}).items():
                rhs[key] = b.add(rhs.get(key, b.zero), b.mul(x, y))
        if not compare(b, lhs, rhs)[0]:
            return False
    return True


def direct_counital(phi):
    h, k = phi.domain, phi.codomain
    b = h.backend
    for i in range(h.dim):
        got = b.zero
        for t, x in phi.columns.get(i, {}).items():
            if t in k.counit:
                got = b.add(got, b.mul(x, k.counit[t]))
        if not b.eq(got, h.counit.get(i, b.zero)):
            return False
    return True


GUARD_GROUPS = {
    "S3": GroupSpec.symmetric(3),
    "Z2xZ2": GroupSpec.finite_abelian([2, 2]),
    "Z3": GroupSpec.finite_abelian([3]),
}
DELTAS = [Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2)]


def guard_backend(group, kind):
    return make_backend("float") if kind == "float" else exact_backend_for(group)


def corrupted(entries: dict, key, backend, delta) -> dict:
    entries = dict(entries)
    entries[key] = backend.add(entries.get(key, backend.zero), backend.scale(backend.one, delta))
    return entries


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    group=st.sampled_from(sorted(GUARD_GROUPS)),
    build=st.sampled_from([function_algebra, group_algebra]),
    kind=st.sampled_from(["float", "cyclotomic"]),
    tensor=st.sampled_from(["comul", "counit", "mul", "unit", "antipode"]),
    picks=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    delta=st.sampled_from(DELTAS),
)
def test_coalgebra_rows_agree_with_direct_formulas(group, build, kind, tensor, picks, delta):
    g = make_group(GUARD_GROUPS[group])
    b = guard_backend(g, kind)
    h = build(g, b)
    i, p, q = (x % h.dim for x in picks)
    if tensor in ("comul", "mul", "antipode"):
        outer, key = {"mul": ((i, p), q), "comul": (i, (p, q)), "antipode": (i, p)}[tensor]
        table = dict(getattr(h, tensor))
        table[outer] = corrupted(table.get(outer, {}), key, b, delta)
    else:
        table = corrupted(getattr(h, tensor), i, b, delta)
    bad = dataclasses.replace(h, **{tensor: table})
    for side, algebra in zip(check_hopf_axioms(bad), (bad, dual_hopf(bad))):
        verdicts = {c.name: c.passed for c in side}
        assert verdicts["coassociativity"] == direct_coassociativity(algebra)
        assert verdicts["counit"] == direct_counit(algebra)
        # the shared bialgebra and antipode rows against a fold on this side
        # itself; witnesses are not compared, as they name the basis of the
        # side the shared row was folded on
        got = {c.name: c for c in side}
        for want in hopf._bialgebra_axioms(algebra):
            assert got[want.name].passed == want.passed, want.name
            if b.exact:
                assert got[want.name].residual == want.residual, want.name


@settings(max_examples=160, derandomize=True, deadline=None)
@given(
    orders=st.sampled_from([[3], [4], [2, 2]]),
    kind=st.sampled_from(["float", "cyclotomic"]),
    entry=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    delta=st.sampled_from(DELTAS),
)
def test_cohom_conditions_agree_with_direct_formulas(orders, kind, entry, delta):
    g = make_group(GroupSpec.finite_abelian(orders))
    b = guard_backend(g, kind)
    phi = fourier(g, b)
    i, j = (x % g.order for x in entry)
    columns = dict(phi.columns)
    columns[j] = corrupted(columns[j], i, b, delta)
    phi = LinearMap(phi.domain, phi.codomain, columns)
    rows = {r: {c: col[r] for c, col in columns.items() if r in col} for r in range(g.order)}
    transpose = LinearMap(dual_hopf(phi.codomain), dual_hopf(phi.domain), rows)
    for side, m in zip(check_linear_hom(phi), (phi, transpose)):
        verdicts = {c.name: c.passed for c in side}
        assert verdicts["comultiplicative"] == direct_comultiplicative(m)
        assert verdicts["counital"] == direct_counital(m)


# The products probed at every index pair, in the order of the operands, kept as
# oracles.  probed_mul_vec starts a new key from its term as it is, not added to
# zero, as mul_vec's accumulator does.


def probed_mul_vec(h, v, w):
    b = h.backend
    acc = {}
    for i, a in v.items():
        for j, c in w.items():
            cell = h.mul.get((i, j))
            if cell:
                ac = b.mul(a, c)
                for k, x in cell.items():
                    y = b.mul(ac, x)
                    acc[k] = y if k not in acc else b.add(acc[k], y)
    return acc


def probed_pair_mul(h, p, q):
    b = h.backend
    acc = {}
    for (a1, a2), x in p.items():
        for (c1, c2), y in q.items():
            left = h.mul.get((a1, c1))
            right = h.mul.get((a2, c2))
            if left and right:
                xy = b.mul(x, y)
                for u, s in left.items():
                    xys = b.mul(xy, s)
                    for v, t in right.items():
                        acc[(u, v)] = b.add(acc.get((u, v), b.zero), b.mul(xys, t))
    return acc


PRODUCT_ALGEBRAS = {
    "functions": function_algebra,
    "group": group_algebra,
    "dual functions": lambda g, b: dual_hopf(function_algebra(g, b)),
    "dual group": lambda g, b: dual_hopf(group_algebra(g, b)),
    "functions (x) group": lambda g, b: tensor_hopf(function_algebra(g, b), group_algebra(g, b)),
}


def edited_diagonal(edit):
    """The function algebra with one diagonal cell edited: dropped, a coefficient other than one,
    or one with -0.0 parts (on the exact backend, zero)."""
    def build(g, b):
        h = function_algebra(g, b)
        mul = dict(h.mul)
        if edit == "missing":
            del mul[(1, 1)]
        elif edit == "coefficient":
            mul[(1, 1)] = {1: b.add(b.one, b.root(1, 2))} if not b.exact else {1: b.from_int(-2)}
        else:
            mul[(0, 0)] = {0: complex(-0.0, -0.0) if not b.exact else b.zero}
        return dataclasses.replace(h, mul=mul)
    return build


# products that read as a diagonal (HopfAlgebra.diagonal), besides the function algebra's and the
# group algebra's dual's
DIAGONAL_ALGEBRAS = {
    "functions (x) functions": lambda g, b: tensor_hopf(function_algebra(g, b), function_algebra(g, b)),
    "dual group (x) functions":
        lambda g, b: tensor_hopf(dual_hopf(group_algebra(g, b)), function_algebra(g, b)),
    **{f"{edit} cell": edited_diagonal(edit) for edit in ("missing", "coefficient", "-0.0")},
}
PROBED_ALGEBRAS = {**PRODUCT_ALGEBRAS, **DIAGONAL_ALGEBRAS}


def scalars(b):
    if not b.exact:
        parts = st.floats(-4, 4, allow_nan=False)
        return st.builds(complex, parts, parts)
    coeffs = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    return st.lists(coeffs, min_size=b.degree, max_size=b.degree).map(tuple)


class Draws:
    """Stands in for st.data() in an explicit example: hands out the given values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


class Recording:
    """A backend that forwards every attribute and records the operands of each ``mul``, in call
    order, as their reprs."""

    def __init__(self, inner):
        self._inner, self.muls = inner, []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def mul(self, x, y):
        self.muls.append((repr(x), repr(y)))
        return self._inner.mul(x, y)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(
    group=st.sampled_from(sorted(GUARD_GROUPS)),
    algebra=st.sampled_from(sorted(PROBED_ALGEBRAS)),
    kind=st.sampled_from(["float", "cyclotomic"]),
    data=st.data(),
)
# a key's first term as it is: 0j times -0.0+0j is -0.0+0j, which added to zero would be 0j
@example(group="S3", algebra="dual functions", kind="float",
         data=Draws({0: 0j}, {0: complex(-0.0, 0.0)}, {}, {}))
# -0.0 parts in a diagonal cell and in both operands: each product keeps the sign its operands give it
@example(group="Z3", algebra="-0.0 cell", kind="float",
         data=Draws({0: complex(-0.0, 1.0), 2: 1j}, {2: complex(0.5, -0.0), 0: complex(-0.0, -0.0)}, {}, {}))
def test_products_match_probing_every_pair(group, algebra, kind, data):
    g = make_group(GUARD_GROUPS[group])
    b = guard_backend(g, kind)
    h = PROBED_ALGEBRAS[algebra](g, b)
    assert (h.diagonal is None) == (algebra in ("group", "dual functions", "functions (x) group"))
    index = st.integers(0, h.dim - 1)
    v, w = (data.draw(st.dictionaries(index, scalars(b), max_size=h.dim)) for _ in range(2))
    p, q = (data.draw(st.dictionaries(st.tuples(index, index), scalars(b), max_size=8)) for _ in range(2))
    # the same entries in the same key order, each by repr (so a float summed in another order
    # fails too), from the same backend products in the same order
    products = []
    for product in (mul_vec, probed_mul_vec):
        recording = Recording(b)
        out = product(dataclasses.replace(h, backend=recording), v, w)
        products.append(([(k, repr(x)) for k, x in out.items()], recording.muls))
    assert products[0] == products[1]
    assert ({k: repr(x) for k, x in pair_mul(h, p, q).items()}
            == {k: repr(x) for k, x in probed_pair_mul(h, p, q).items()})


def unskipped_algebra_axioms(h):
    """_algebra_axioms before empty triples were skipped, kept as the oracle:
    all n^3 associativity triples, k ascending."""
    b, dim = h.backend, h.dim

    def pairs_assoc():
        for i, j, k in itertools.product(range(dim), repeat=3):
            lhs = mul_vec(h, h.mul.get((i, j), {}), h.basis(k))
            rhs = mul_vec(h, h.basis(i), h.mul.get((j, k), {}))
            yield f"({i},{j},{k})", lhs, rhs

    def pairs_unit():
        for i in range(dim):
            yield f"left {i}", mul_vec(h, h.unit, h.basis(i)), h.basis(i)
            yield f"right {i}", mul_vec(h, h.basis(i), h.unit), h.basis(i)

    return hopf.fold_checks("associativity", b, pairs_assoc()), hopf.fold_checks("unit", b, pairs_unit())


SKIP_GROUPS = {"S3": GroupSpec.symmetric(3), "Z4": GroupSpec.finite_abelian([4]),
               "Z2xZ2": GroupSpec.finite_abelian([2, 2])}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    group=st.sampled_from(sorted(SKIP_GROUPS)),
    build=st.sampled_from([function_algebra, group_algebra]),
    kind=st.sampled_from(["float", "cyclotomic"]),
    edits=st.lists(st.tuples(st.sampled_from(["add", "drop", "empty", "zero"]),
                             st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
                             st.sampled_from(DELTAS)), min_size=1, max_size=4),
)
# cells (1, 3) and (1, 2), added in that order, make row 1 of mul run out of
# ascending order: triples (0, 1, 2) and (0, 1, 3) fail, and (0, 1, 2) is the witness
@example(group="Z4", build=function_algebra, kind="cyclotomic",
         edits=[("add", (1, 3, 0), Fraction(1)), ("add", (1, 2, 0), Fraction(1))])
def test_skipped_associativity_triples_match_the_full_fold(group, build, kind, edits):
    g = make_group(SKIP_GROUPS[group])
    b = guard_backend(g, kind)
    h = build(g, b)
    mul = dict(h.mul)
    for edit, picks, delta in edits:
        i, j, k = (x % h.dim for x in picks)
        if edit == "add":  # a new or changed entry, in a new or existing cell
            mul[(i, j)] = corrupted(mul.get((i, j), {}), k, b, delta)
        elif edit == "drop":
            mul.pop((i, j), None)
        elif edit == "empty":
            mul[(i, j)] = {}
        else:  # a nonempty cell whose values are all zero
            mul[(i, j)] = {x: b.zero for x in {k, *mul.get((i, j), {})}}
    bad = dataclasses.replace(h, mul=mul)
    assert hopf._algebra_axioms(bad) == unskipped_algebra_axioms(bad)


@pytest.mark.parametrize("build, triples", [(function_algebra, lambda n: n),
                                            (group_algebra, lambda n: 0)])
@pytest.mark.parametrize("group", sorted(SKIP_GROUPS))
def test_associativity_compares_only_triples_with_a_nonempty_side(monkeypatch, group, build, triples):
    g = make_group(SKIP_GROUPS[group])
    calls = collections.Counter()
    fold, compare = hopf.fold_checks, hopf.compare
    folding = []

    def counted_fold(name, backend, pairs):
        folding.append(name)
        return fold(name, backend, pairs)

    def counted_compare(backend, u, v):
        calls[folding[-1]] += 1
        return compare(backend, u, v)

    monkeypatch.setattr(hopf, "fold_checks", counted_fold)
    monkeypatch.setattr(hopf, "compare", counted_compare)
    h = build(g, exact_backend_for(g))
    assert all(c.passed for c in hopf._algebra_axioms(h))
    # the function algebra's product is diagonal: only the n triples (i, i, i)
    # compare nonempty vectors, and only they are folded; the group algebra's
    # product is a group law, decided on its int array without a compare
    assert calls == collections.Counter({"associativity": triples(h.dim), "unit": 2 * h.dim})


LAW_GROUPS = {**SKIP_GROUPS, "Z6": GroupSpec.finite_abelian([6])}
LAW_BACKENDS = {"exact": lambda: make_backend("cyclotomic", order=1), "float": lambda: make_backend("float")}
# edits of one cell of a law, given key k, to a new cell (None: no cell); the ones after
# "swap" leave a product that is not a law of one-coefficient basis vectors, so it takes the fold
LAW_EDITS = {
    "none": lambda b, n, k, cell: cell,
    "swap": lambda b, n, k, cell: {k: b.one},
    "missing": lambda b, n, k, cell: None,
    "key out of range": lambda b, n, k, cell: {n: b.one},
    "key -1": lambda b, n, k, cell: {-1: b.one},
    "two keys": lambda b, n, k, cell: {k: b.one, k + 1: b.one},
    "value 2": lambda b, n, k, cell: {k: b.add(b.one, b.one)},
    "float noise": lambda b, n, k, cell: {k: 1 + 1e-15j} if not b.exact else {k: b.from_int(-1)},
}


def law_algebra(law, b) -> hopf.HopfAlgebra:
    n = len(law)
    return hopf.HopfAlgebra(dim=n, labels=tuple(map(str, range(n))), backend=b,
                            mul={(i, j): {law[i][j]: b.one} for i in range(n) for j in range(n)},
                            unit={0: b.one}, comul={}, counit={}, antipode={})


@st.composite
def law_tables(draw):
    """A group's Cayley table with its elements relabelled, or an arbitrary int table."""
    name = draw(st.sampled_from([*sorted(LAW_GROUPS), "random"]))
    if name == "random":
        n = draw(st.integers(1, 7))
        row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        return draw(st.lists(row, min_size=n, max_size=n))
    _, law, _, _ = hopf._cayley_table(make_group(LAW_GROUPS[name]))
    p = draw(st.permutations(range(len(law))))
    out = [[0] * len(law) for _ in law]
    for i, row in enumerate(law):
        for j, k in enumerate(row):
            out[p[i]][p[j]] = p[k]
    return out


@settings(max_examples=300, derandomize=True, deadline=None)
@given(law=law_tables(), kind=st.sampled_from(sorted(LAW_BACKENDS)), edit=st.sampled_from(sorted(LAW_EDITS)),
       picks=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
def test_law_associativity_matches_the_full_fold(law, kind, edit, picks):
    b = LAW_BACKENDS[kind]()
    n = len(law)
    i, j, k = (x % n for x in picks)
    h = law_algebra(law, b)
    mul = dict(h.mul)
    cell = LAW_EDITS[edit](b, n, k, mul.pop((i, j)))
    if cell is not None:
        mul[(i, j)] = cell
    h = dataclasses.replace(h, mul=mul)
    law = hopf._monomial_law(h)
    assert (law is None) == (edit not in ("none", "swap"))
    # the dual's coproduct is h's product transposed, so it spells the same law, or none
    dual_law = hopf._monomial_law(dual_hopf(h), coproduct=True)
    assert (dual_law is None) == (law is None) and (law is None or np.array_equal(dual_law, law))
    assert hopf._algebra_axioms(h) == unskipped_algebra_axioms(h)


# Z2 x Z2 with 1.1 = 2 and 2.1 = 0: (1.1).1 = 0 but 1.(1.1) = 3, the first failing triple
NON_ASSOCIATIVE = [[0, 1, 2, 3], [1, 2, 3, 2], [2, 0, 0, 1], [3, 2, 1, 0]]


@pytest.mark.parametrize("kind", sorted(LAW_BACKENDS))
def test_law_associativity_names_the_first_failing_triple(kind):
    h = law_algebra(NON_ASSOCIATIVE, LAW_BACKENDS[kind]())
    assert hopf._monomial_law(h) is not None
    assoc, unit = hopf._algebra_axioms(h)
    assert assoc == CheckResult("associativity", False, 1.0, "(1,1,1)")
    assert (assoc, unit) == unskipped_algebra_axioms(h)


def generic_bialgebra_axioms(h):
    """_bialgebra_axioms before the uniform read, kept as the oracle: every pair (i, j) of both
    product blocks, each formed by ``_apply`` and ``pair_mul``."""
    b, dim = h.backend, h.dim
    counit = {i: {0: c} for i, c in h.counit.items()}

    def pairs_bialgebra():
        for i in range(dim):
            for j in range(dim):
                lhs = hopf._apply(b, h.comul, h.mul.get((i, j), {}))
                rhs = pair_mul(h, h.comul.get(i, {}), h.comul.get(j, {}))
                yield f"comul x product ({i},{j})", lhs, rhs
        yield "comul of unit", hopf._apply(b, h.comul, h.unit), hopf._kron(b, h.unit, h.unit)
        for i in range(dim):
            for j in range(dim):
                lhs = hopf._apply(b, counit, h.mul.get((i, j), {}))
                rhs = {0: b.mul(h.counit.get(i, b.zero), h.counit.get(j, b.zero))}
                yield f"counit x product ({i},{j})", lhs, rhs
        yield "counit of unit", hopf._apply(b, counit, h.unit), {0: b.one}

    return hopf.fold_checks("bialgebra", b, pairs_bialgebra())


def noisy(b, x):
    """x times 1 + 1e-15j on floats, x plus 10^-15 exactly: a value == one no longer is."""
    return x * (1 + 1e-15j) if not b.exact else b.add(x, b.scale(b.one, Fraction(1, 10**15)))


def bumped(b, x, delta):
    return b.add(x, b.scale(b.one, delta))


def with_cell(h, tensor, key, f):
    """The replace() keyword for h's tensor with every value of its cell at key mapped by f."""
    table = getattr(h, tensor)
    return {tensor: {**table, key: {k: f(x) for k, x in table[key].items()}}}


# edits at basis indices i != j; the function algebra and the group algebra's dual have a diagonal
# product and a law coproduct, the group algebra and the function algebra's dual a law product and
# the diagonal coproduct comul[i] == {(i, i): one}.  Each edit names what it leaves standing: the
# product read (law or diagonal) and the bialgebra's uniform read, which needs a law side.
READ_EDITS = {
    "none": (lambda h, i, j, delta: {}, {"law", "diagonal", "uniform"}),
    # a new cell off the diagonal, or on a law a second entry or another coefficient in cell (i, j)
    "off-diagonal cell": (lambda h, i, j, delta: {"mul": {**h.mul, (i, j): corrupted(
        h.mul.get((i, j), {}), i, h.backend, delta)}}, set()),
    # a diagonal cell's value other than one: the diagonal read holds, with that value
    "diagonal value": (lambda h, i, j, delta: with_cell(h, "mul", (i, i), lambda x: bumped(h.backend, x, delta)),
                       {"diagonal"}),
    "comul coefficient": (lambda h, i, j, delta: with_cell(h, "comul", i, lambda x: bumped(h.backend, x, delta)),
                          {"law", "diagonal"}),
    "counit missing": (lambda h, i, j, delta: {"counit": {k: x for k, x in h.counit.items() if k != i}},
                       {"law", "diagonal"}),
    "noise in mul": (lambda h, i, j, delta: with_cell(h, "mul", (i, i), lambda x: noisy(h.backend, x)),
                     {"diagonal"}),
    "noise in comul": (lambda h, i, j, delta: with_cell(h, "comul", i, lambda x: noisy(h.backend, x)),
                       {"law", "diagonal"}),
}
READ_GROUPS = {**SKIP_GROUPS, "Z6": GroupSpec.finite_abelian([6])}
READ_ALGEBRAS = {name: build for name, build in PRODUCT_ALGEBRAS.items() if "(x)" not in name}


@pytest.mark.parametrize("edit", sorted(READ_EDITS))
@pytest.mark.parametrize("algebra", sorted(READ_ALGEBRAS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(group=st.sampled_from(sorted(READ_GROUPS)), kind=st.sampled_from(["float", "cyclotomic"]),
       picks=st.tuples(st.integers(0, 5), st.integers(0, 4)), delta=st.sampled_from(DELTAS))
def test_read_folds_match_the_generic_folds(algebra, edit, group, kind, picks, delta):
    g = make_group(READ_GROUPS[group])
    b = guard_backend(g, kind)
    h = READ_ALGEBRAS[algebra](g, b)
    n = h.dim
    i = picks[0] % n
    j = (i + 1 + picks[1] % (n - 1)) % n
    apply_edit, standing = READ_EDITS[edit]
    bad = dataclasses.replace(h, **apply_edit(h, i, j, delta))
    # the read each side takes, or the generic fold it falls back to
    law_side = algebra in ("group", "dual functions")
    assert (hopf._monomial_law(bad) is not None) == (law_side and "law" in standing)
    assert (bad.diagonal is not None) == (not law_side and "diagonal" in standing)
    with mock.patch.object(hopf, "pair_mul", wraps=hopf.pair_mul) as products:
        bialgebra, antipode = hopf._bialgebra_axioms(bad)
    assert products.call_count == (0 if law_side and "uniform" in standing else n * n)
    # the verdict, residual and witness of the generic folds
    assert hopf._algebra_axioms(bad) == unskipped_algebra_axioms(bad)
    assert bialgebra == generic_bialgebra_axioms(bad)


def test_near_diagonal_product_names_its_first_failing_triple():
    g = make_group(GroupSpec.finite_abelian([4]))
    b = make_backend("cyclotomic", order=1)
    h = function_algebra(g, b)
    # one cell off the diagonal, (0, 1) = 1_1: (1 0) 1 = 0 but 1 (0 1) = 1_1, so the generic fold
    # names (1,0,1); and 1_0 times the unit, every 1_m summed, picks up 1_1 as well
    bad = dataclasses.replace(h, mul={**h.mul, (0, 1): {1: b.one}})
    assert hopf._monomial_law(bad) is None and bad.diagonal is None
    assoc, unit = hopf._algebra_axioms(bad)
    assert assoc == CheckResult("associativity", False, 1.0, "(1,0,1)")
    assert unit == CheckResult("unit", False, 1.0, "right 0")
    assert (assoc, unit) == unskipped_algebra_axioms(bad)
    # a diagonal cell of value 2 keeps the diagonal read: associativity holds, and the unit's
    # entry 2 is 2
    two = dataclasses.replace(h, mul={**h.mul, (2, 2): {2: b.from_int(2)}})
    assert two.diagonal is not None
    assert hopf._algebra_axioms(two) == (CheckResult("associativity", True, 0.0, ""),
                                         CheckResult("unit", False, 1.0, "left 2"))
    assert hopf._algebra_axioms(two) == unskipped_algebra_axioms(two)


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
def test_bialgebra_with_a_broken_counit_names_its_first_failing_pair(kind):
    g = make_group(GroupSpec.symmetric(3))
    b = guard_backend(g, kind)
    h = group_algebra(g, b)
    # the counit drops the point 2: the uniform read falls back, and pair (i, j) fails where
    # exactly one of law[i][j] and the pair (i, j) holds a 2, first at (1, 2): 1 2 is not 2, as
    # the identity is 0, so eps(1 2) = 1 but eps(1) eps(2) = 0
    bad = dataclasses.replace(h, counit={k: x for k, x in h.counit.items() if k != 2})
    _, law, _, e = hopf._cayley_table(g)
    assert e == 0 and law[1][2] != 2
    bialgebra, antipode = hopf._bialgebra_axioms(bad)
    assert bialgebra == CheckResult("bialgebra", False, 1.0, "counit x product (1,2)")
    assert bialgebra == generic_bialgebra_axioms(bad)
    # S(2) 2 = e is one, but the target eps(2) e is zero
    assert antipode == CheckResult("antipode", False, 1.0, "left 2")


def test_function_algebra_axioms_make_no_pair_product():
    g = make_group(GroupSpec.symmetric(4))
    h = function_algebra(g, make_backend("cyclotomic", order=1))
    with (mock.patch.object(hopf, "pair_mul", wraps=hopf.pair_mul) as products,
          mock.patch.object(hopf, "mul_vec", wraps=hopf.mul_vec) as vectors):
        assert all(c.passed for c in itertools.chain(*check_hopf_axioms(h)))
    # two per unit pair on either side; two per triple (i, i, i) of the function algebra's diagonal
    # product and none for its dual's law; two per antipode row, as the dual is the side the
    # bialgebra and antipode fold on
    assert products.call_count == 0
    assert vectors.call_count == 8 * h.dim


def added_to_zero(backend, acc, scalar, vec):
    """acc += scalar * vec with every new key started from zero, kept as the oracle."""
    for k, x in vec.items():
        acc[k] = backend.add(acc.get(k, backend.zero), backend.mul(scalar, x))


@st.composite
def scalar_of(draw, b):
    if b.exact:
        q = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        return draw(st.sampled_from([b.zero, b.one, b.scale(b.one, q), b.root(draw(st.integers(0, 11)), 12),
                                     b.add(b.from_int(draw(st.integers(-2, 2))), b.root(5, 12))]))
    return draw(st.sampled_from([0j, -0.0 + 0j, complex(-0.0, -0.0), 1 + 0j]) | st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(["float", "cyclotomic"]), st.data())
def test_new_accumulator_keys_skip_the_add_to_zero(kind, data):
    b = make_backend(kind, order=12)
    entries = st.dictionaries(st.integers(0, 5), scalar_of(b), max_size=6)
    acc, vec, scalar = data.draw(entries), data.draw(entries), data.draw(scalar_of(b))
    want = dict(acc)
    added_to_zero(b, want, scalar, vec)
    adds = []
    add = b.add
    b.add = lambda x, y: adds.append(x) or add(x, y)
    got = dict(acc)
    hopf._vec_add_scaled(b, got, scalar, vec)
    assert list(got) == list(want) and got == want
    if b.exact:
        assert [b.format(v) for v in got.values()] == [b.format(v) for v in want.values()]
    # only keys already in the accumulator take an add
    assert len(adds) == len(vec.keys() & acc.keys())


def counting_folds(monkeypatch) -> collections.Counter:
    calls = collections.Counter()
    fold = hopf.fold_checks

    def counted(name, backend, pairs):
        calls[name] += 1
        return fold(name, backend, pairs)

    monkeypatch.setattr(hopf, "fold_checks", counted)
    return calls


def test_hopf_axioms_run_folds_each_identity_once(tmp_path, monkeypatch, capsys):
    calls = counting_folds(monkeypatch)
    cfg = tmp_path / "s3.json"
    cfg.write_text(json.dumps({
        "command": "hopf-axioms", "group": {"kind": "symmetric", "degree": 3}, "algebra": "both",
    }))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    # function and group algebra, each with its dual, are two distinct tensor
    # sets: the group algebra is the function algebra's dual, so its lists are
    # reused; one fold per algebra axiom of each set, one per compatibility
    # axiom, on the side with the smaller coproduct, none for the coalgebra ones;
    # the dual's product is the group law, whose associativity folds only its
    # first failing triple
    assert calls == {"associativity": 2, "unit": 2, "bialgebra": 1, "antipode": 1}
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    assert len(rows) == 24


def test_duality_cycle_folds_each_hom_condition_once(monkeypatch):
    calls = counting_folds(monkeypatch)
    g = make_group(GroupSpec.finite_abelian([6]))
    assert duality_cycle(g, exact_backend_for(g)).passed
    # the character table is symmetric: its transpose and the dual side's map
    # are literally itself, so each condition and unitarity fold once
    assert calls == {"multiplicative": 1, "unital": 1, "antipode": 1, "unitarity": 1,
                     "transpose-columns": 1, "cycle-identity": 1}


def test_perturbed_duality_cycle_folds_both_sides(monkeypatch):
    calls = counting_folds(monkeypatch)
    g = make_group(GroupSpec.finite_abelian([6]))
    assert not duality_cycle(g, exact_backend_for(g), perturb=(1, 2)).passed
    # an off-diagonal bump breaks the symmetry: only the antipode condition,
    # which the transpose shares with the map, folds once
    assert calls == {"multiplicative": 2, "unital": 2, "antipode": 1, "unitarity": 2,
                     "transpose-columns": 1, "cycle-identity": 1}


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_no_config_folds_more_than_3n_pairs(monkeypatch, tmp_path, capsys, config):
    # every check decides from a structure read where one holds, so what reaches a fold of pairs
    # is a few cells per basis vector: one plain fold loop is enough for it
    sizes = []
    fold = hopf.fold_checks

    def counted(name, backend, pairs):
        pairs = list(pairs)
        sizes.append(len(pairs))
        return fold(name, backend, pairs)

    monkeypatch.setattr(hopf, "fold_checks", counted)
    main(["--config", str(config), "--out", str(tmp_path)])
    capsys.readouterr()
    if sizes:
        raw = json.loads(config.read_text(encoding="utf-8"))
        n = math.prod(cli._parse_group(raw[key], key)[0].order for key in ("group", "left", "right") if key in raw)
        assert max(sizes) <= 3 * n, (max(sizes), n)


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
@pytest.mark.parametrize("perturb", [None, (1, 2), (3, 3)], ids=str)
def test_duality_cycle_builds_one_pair_of_algebras(monkeypatch, perturb, kind):
    built = collections.Counter()
    for name in ("group_algebra", "function_algebra"):
        def counted(*args, _name=name, _build=getattr(hopf, name)):
            built[_name] += 1
            return _build(*args)
        monkeypatch.setattr(hopf, name, counted)
    g = make_group(GroupSpec.finite_abelian([2, 3]))
    duality_cycle(g, guard_backend(g, kind), perturb)
    # the dual side is the character table alone: no second transform, so no second pair of algebras
    assert built == {"group_algebra": 1, "function_algebra": 1}


def antipode_hom(phi):
    """The antipode condition S_k phi = phi S_h of phi: h -> k, column by column."""
    h, k = phi.domain, phi.codomain
    b = h.backend
    return hopf.fold_checks("antipode", b, (
        (str(i), hopf._apply(b, k.antipode, phi.columns.get(i, {})),
         hopf._apply(b, phi.columns, h.antipode.get(i, {})))
        for i in range(h.dim)
    ))


def generic_hom(phi):
    """The multiplicative and unital conditions of phi: h -> k folded without reading
    either side's structure: phi applied to every product cell of h against ``mul_vec`` of
    the two images in k."""
    h, k = phi.domain, phi.codomain
    b = h.backend
    img = [phi.columns.get(i, {}) for i in range(h.dim)]
    return (
        hopf.fold_checks("multiplicative", b, (
            (f"({i},{j})", hopf._apply(b, phi.columns, h.mul.get((i, j), {})), mul_vec(k, img[i], img[j]))
            for i in range(h.dim) for j in range(h.dim))),
        hopf.fold_checks("unital", b, [("unit", hopf._apply(b, phi.columns, h.unit), dict(k.unit))]),
    )


def unshared_hom(phi):
    """check_linear_hom with the transpose's conditions always computed, the
    antipode condition included."""
    transpose = LinearMap(dual_hopf(phi.codomain), dual_hopf(phi.domain), hopf._transpose(phi.columns))
    (mult, unital), (t_mult, t_unital) = generic_hom(phi), generic_hom(transpose)
    antipode, t_antipode = antipode_hom(phi), antipode_hom(transpose)
    rename = dataclasses.replace
    return (
        [mult, unital, rename(t_mult, name="comultiplicative"), rename(t_unital, name="counital"), antipode],
        [t_mult, t_unital, rename(mult, name="comultiplicative"), rename(unital, name="counital"), t_antipode],
    )


def unshared_reprs(phi):
    """The reprs check_linear_hom(phi) must give: unshared_hom's, except that
    the transpose's antipode row, folded on phi, carries phi's witness; its
    verdict and residual are still the transpose's own."""
    hom, transpose_hom = unshared_hom(phi)
    transpose_hom[-1] = dataclasses.replace(transpose_hom[-1], detail=hom[-1].detail)
    return [[repr(c) for c in side] for side in (hom, transpose_hom)]


def unshared_stages(group, b, phi):
    """The duality-cycle stages of phi with nothing shared and the inverse
    scaled by 1/|G| term by term before the composite.  Character values come
    from their formula here, chi_m(t) = root(sum_k m_k t_k e / n_k mod e, e)
    with e the exponent, not from the code under test."""
    hom, transpose_hom = unshared_hom(phi)
    e, elems = group.exponent, list(group.elements())

    def value(m, t):
        return b.root(sum(mk * tk * e // nk for mk, tk, nk in zip(m, t, group.orders)) % e, e)

    # the dual side's transform: column s (a character of G) holds its value at each t of G^^ = G
    dual = {j: {i: value(t, s) for i, t in enumerate(elems)} for j, s in enumerate(elems)}
    ok, worst = compare(b, hopf._entries(hopf._transpose(phi.columns)), hopf._entries(dual))
    s_map = LinearMap(phi.domain, phi.codomain, hopf._transpose(dual))
    s_unit = unitarity_check(s_map)
    inv_scale = Fraction(1, group.order)
    s_inv = {
        t: {i: b.scale(b.conj(x), inv_scale) for i, x in row.items()}
        for t, row in hopf._transpose(s_map.columns).items()
    }
    composite = hopf._compose(b, s_inv, phi.columns)
    cycle_ok, cycle_worst = compare(b, hopf._entries(composite), {(i, i): b.one for i in range(group.order)})
    return [
        hopf._all_of("transform-hom", hom),
        hopf._all_of("transpose-hom", transpose_hom),
        CheckResult(name="transpose-columns", passed=ok, residual=worst),
        unitarity_check(phi),
        CheckResult(name="cycle-identity", passed=s_unit.passed and cycle_ok,
                    residual=max(cycle_worst, s_unit.residual)),
    ]


ORACLE_CYCLE_GROUPS = ([2], [3], [4], [6], [2, 2], [2, 3])
HOM_GROUPS = {
    **{f"Z{n}": GroupSpec.finite_abelian([n]) for n in range(1, 8)},
    **{f"Z{a}xZ{c}": GroupSpec.finite_abelian([a, c]) for a, c in ((2, 2), (2, 3), (2, 4), (3, 3))},
    "S3": GroupSpec.symmetric(3),  # a law that is not symmetric
}
# maps whose domain reads as a law or not and whose codomain is diagonal or not
HOM_MAPS = {
    "fourier": lambda g, b: fourier(g, b) if g.kind == "finite_abelian" else None,
    "function identity": lambda g, b: LinearMap(function_algebra(g, b), function_algebra(g, b),
                                                {i: {i: b.one} for i in range(g.order)}),
    "group identity": lambda g, b: LinearMap(group_algebra(g, b), group_algebra(g, b),
                                             {i: {i: b.one} for i in range(g.order)}),
    "noisy fourier": lambda g, b: noisy_fourier(g, b) if g.kind == "finite_abelian" else None,
}


def noisy_fourier(g, b):
    """fourier's map with every entry moved by its own small rational: dense, no entry a root, and
    within the float tolerance, so on floats it takes the array path."""
    phi = fourier(g, b)
    return LinearMap(phi.domain, phi.codomain, {
        j: {i: b.add(x, b.scale(b.one, Fraction(1 + i + 2 * j, 10**12))) for i, x in col.items()}
        for j, col in phi.columns.items()})


# a new value for one entry given the old one (None: missing) and a root r of order e
HOM_ENTRIES = {
    "kept": lambda b, x, r, e: x,
    "root": lambda b, x, r, e: b.root(r, e),
    "bumped": lambda b, x, r, e: b.add(b.one if x is None else x, b.one),
}


def scaled_cell(h, key, value):
    """h with every coefficient of its product cell at key replaced by value."""
    if key not in h.mul:
        return h
    return dataclasses.replace(h, mul={**h.mul, key: {m: value for m in h.mul[key]}})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    group=st.sampled_from(sorted(HOM_GROUPS)),
    kind=st.sampled_from(["float", "cyclotomic"]),
    build=st.sampled_from(sorted(HOM_MAPS)),
    entry=st.sampled_from(sorted(HOM_ENTRIES)),
    transpose=st.booleans(),
    cell=st.sampled_from(["domain", "codomain", None]),
    cell_value=st.sampled_from(sorted(HOM_ENTRIES)),
    picks=st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
)
def test_read_hom_fold_matches_the_generic_fold(group, kind, build, entry, transpose, cell, cell_value, picks):
    g = make_group(HOM_GROUPS[group])
    b = guard_backend(g, kind)
    e = g.exponent
    i, j, m, r = (x % g.order for x in picks)
    phi = HOM_MAPS[build](g, b)
    assume(phi is not None)
    columns = {t: dict(col) for t, col in phi.columns.items()}
    x = HOM_ENTRIES[entry](b, columns[j].get(i), r, e)
    if x is not None:
        columns[j][i] = x
    phi = LinearMap(phi.domain, phi.codomain, columns)
    if transpose:
        phi = LinearMap(dual_hopf(phi.codomain), dual_hopf(phi.domain), hopf._transpose(phi.columns))
    # one cell's coefficient: a diagonal codomain's off one, or a domain law's off one
    value = HOM_ENTRIES[cell_value](b, b.one, r, e)
    if cell == "codomain":
        phi = LinearMap(phi.domain, scaled_cell(phi.codomain, (m, m), value), phi.columns)
    elif cell == "domain":
        phi = LinearMap(scaled_cell(phi.domain, (m, i), value), phi.codomain, phi.columns)
    # repr of both results: verdict, residual to the bit, witness
    assert repr(hopf._algebra_hom(phi)) == repr(generic_hom(phi))


def counting_hom_work(monkeypatch) -> collections.Counter:
    """Counts of mul_vec calls ("mul_vec") and of _apply calls made inside each named fold."""
    calls = collections.Counter()
    folding = []
    fold, apply, product = hopf.fold_checks, hopf._apply, hopf.mul_vec

    def counted_fold(name, backend, pairs):
        folding.append(name)
        try:
            return fold(name, backend, pairs)
        finally:
            folding.pop()

    def counted_apply(*args):
        calls[folding[-1] if folding else None] += 1
        return apply(*args)

    def counted_product(*args):
        calls["mul_vec"] += 1
        return product(*args)

    monkeypatch.setattr(hopf, "fold_checks", counted_fold)
    monkeypatch.setattr(hopf, "_apply", counted_apply)
    monkeypatch.setattr(hopf, "mul_vec", counted_product)
    return calls


@pytest.mark.parametrize("perturb", [None, (1, 2)])
@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
def test_duality_hom_fold_reads_the_law_and_the_diagonal(monkeypatch, kind, perturb):
    g = make_group(GroupSpec.finite_abelian([6]))
    calls = counting_hom_work(monkeypatch)
    duality_cycle(g, guard_backend(g, kind), perturb)
    # each multiplicative fold reads its law domain and diagonal codomain as arrays; perturbed,
    # the map and its transpose fold apart, and on the exact backend each pair that differs is
    # folded with one mul_vec call, 26 in all; the float fold sees two cells with no mul_vec
    assert calls["mul_vec"] == (26 if kind == "cyclotomic" and perturb else 0)
    # every entry is read as an array: exact, each is a root, the bumped one too (1 + z^2 = z in
    # Z[z_6]); float, each is a finite complex.  Both antipodes read as permutations, so the
    # multiplicative, antipode, unitarity and composite folds apply nothing: each unital fold's one
    # apply is all there is
    assert calls["multiplicative"] == calls["unitarity"] == 0
    assert calls[None] == (1 if perturb is None else 2)


def test_hom_fold_into_a_group_algebra_multiplies_every_pair(monkeypatch):
    g = make_group(GroupSpec.finite_abelian([6]))
    b = exact_backend_for(g)
    calls = counting_hom_work(monkeypatch)
    h = group_algebra(g, b)
    hopf._algebra_hom(LinearMap(h, h, {i: {i: b.one} for i in range(g.order)}))
    # a codomain product that is not diagonal takes the generic fold: phi applied to every
    # product cell and the two images multiplied by mul_vec
    assert calls["mul_vec"] == g.order ** 2
    assert calls["multiplicative"] == g.order ** 2


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
@pytest.mark.parametrize("orders", ORACLE_CYCLE_GROUPS, ids=str)
def test_shared_cycle_stages_match_unshared(orders, kind):
    g = make_group(GroupSpec.finite_abelian(orders))
    b = guard_backend(g, kind)
    cells = itertools.product(range(g.order), repeat=2)
    for perturb in [None, *cells]:
        rep = duality_cycle(g, b, perturb)
        got, want = list(rep.stages), unshared_stages(g, b, rep.transform)
        if perturb is not None and not b.exact:
            # scaling once per entry instead of once per term moves where a
            # float rounds: a perturbed composite's residual may move by an
            # ulp or two (Z3, Z6, Z2xZ3), the verdict may not
            assert got[-1].residual == pytest.approx(want[-1].residual, rel=1e-12, abs=1e-15), perturb
            got[-1] = dataclasses.replace(got[-1], residual=want[-1].residual)
        # repr of every result, so a residual rounded differently fails too
        assert [repr(s) for s in got] == [repr(s) for s in want], perturb
        assert ([[repr(c) for c in side] for side in check_linear_hom(rep.transform)]
                == unshared_reprs(rep.transform)), perturb


def backend_unitarity(phi):
    """unitarity_check with the gram summed through the backend by ``_compose`` and every entry folded."""
    b, n = phi.domain.backend, phi.codomain.dim
    gram = hopf._compose(b, phi.columns, hopf._conj(b, hopf._transpose(phi.columns)))
    target = b.from_int(phi.domain.dim)
    return hopf.fold_checks("unitarity", b, (
        (f"rows ({i},{j})", {0: gram.get(j, {}).get(i, b.zero)}, {0: target if i == j else b.zero})
        for i in range(n) for j in range(n)))


def backend_stages(group, b, phi):
    """The duality-cycle stages of phi with every dense fold run through the backend: the hom
    conditions by ``generic_hom``, the gram and the composite by ``_compose``, and every entry
    of the composite scaled by 1/|G| before it meets the identity.  The dual side's table is the
    code's own, which test_shared_cycle_stages_match_unshared pins to the character formula."""
    hom, transpose_hom = unshared_hom(phi)
    table = hopf._character_table(dual_group(group), b)
    s_map = LinearMap(phi.domain, phi.codomain, hopf._transpose(table))
    ok, worst = compare(b, hopf._entries(phi.columns), hopf._entries(s_map.columns))
    s_unit = backend_unitarity(s_map)
    composite = hopf._entries(hopf._compose(b, hopf._conj(b, table), phi.columns))
    inv_scale = Fraction(1, group.order)
    cycle_ok, cycle_worst = compare(b, {k: b.scale(x, inv_scale) for k, x in composite.items()},
                                    {(i, i): b.one for i in range(group.order)})
    return [
        hopf._all_of("transform-hom", hom),
        hopf._all_of("transpose-hom", transpose_hom),
        CheckResult(name="transpose-columns", passed=ok, residual=worst),
        backend_unitarity(phi),
        CheckResult(name="cycle-identity", passed=s_unit.passed and cycle_ok,
                    residual=max(cycle_worst, s_unit.residual)),
    ]


CYCLE_GROUPS = {
    **{f"Z{n}": [n] for n in range(1, 17)},
    **{f"Z{a}xZ{c}": [a, c] for a, c in ((2, 2), (2, 3), (2, 4), (2, 6), (3, 3), (3, 6), (4, 4))},
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    group=st.sampled_from(sorted(CYCLE_GROUPS)),
    kind=st.sampled_from(["float", "cyclotomic"]),
    edit=st.sampled_from(["none", "bumped", "root", "roots", "missing"]),
    picks=st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)),
)
# a bump that is itself a root (1 + z^2 = z in Z[z_6]), and one that is not (1 + z)
@example(group="Z6", kind="cyclotomic", edit="bumped", picks=(1, 2, 0))
@example(group="Z6", kind="cyclotomic", edit="bumped", picks=(1, 1, 0))
@example(group="Z4", kind="cyclotomic", edit="missing", picks=(2, 3, 0))
@example(group="Z6", kind="float", edit="none", picks=(0, 0, 0))
def test_cycle_stages_match_the_backend_folds(group, kind, edit, picks):
    g = make_group(GroupSpec.finite_abelian(CYCLE_GROUPS[group]))
    b = guard_backend(g, kind)
    i, j, r = (x % g.order for x in picks)
    phi = fourier(g, b)
    columns = {t: dict(col) for t, col in phi.columns.items()}
    if edit in ("root", "roots"):
        columns[j][i] = b.root(r, g.exponent)
    if edit == "roots":
        # a second root in the same column: a pair may then differ on two entries
        columns[j][r] = b.root(i + j, g.exponent)
    elif edit == "missing":
        del columns[j][i]
    sums = []
    root_sums = hopf._root_sums

    def counted_root_sums(*args):
        sums.append(args)
        return root_sums(*args)

    with mock.patch.object(hopf, "_root_sums", counted_root_sums):
        if edit == "bumped":
            rep = duality_cycle(g, b, (i, j))
        else:
            with mock.patch.object(hopf, "fourier", lambda *_: LinearMap(phi.domain, phi.codomain, columns)):
                rep = duality_cycle(g, b)
    # repr of every stage: verdict, residual to the bit, witness
    assert [repr(s) for s in rep.stages] == [repr(s) for s in backend_stages(g, b, rep.transform)]
    read = rep.transform._dense
    if kind == "float":
        # float parts, or no read at a missing entry: no exponent is summed
        assert (read is None) == (edit == "missing") and not sums
    elif edit == "missing":
        assert read is None
    else:
        # every entry is a root, or a bumped one is a hole of the read: the gram and the composite
        # are each one root-sum call, and so is the dual side's gram when the map is no longer the
        # table itself
        assert read is not None and len(sums) == (2 if rep.transform.columns == fourier(g, b).columns else 3)


# orders of at least 4, where up to three holes leave most terms of the gram and the composite
# all-root
HOLE_GROUPS = {
    **{f"Z{n}": [n] for n in range(4, 17)},
    **{f"Z{a}xZ{c}": [a, c] for a, c in ((2, 2), (2, 4), (2, 6), (3, 3))},
}
# a new value for an entry x of a table whose roots have order e
HOLE_VALUES = {
    # 1 + z^a, a root only when z^a is a primitive cube root
    "plus one": lambda b, x, e: b.add(x, b.one),
    # |3 + z^a| >= 2, never a root
    "plus three": lambda b, x, e: b.add(x, b.from_int(3)),
    # non-integral coefficients, never a root
    "fraction": lambda b, x, e: b.add(x, b.scale(b.root(1, e), Fraction(2, 3))),
    "zero": lambda b, x, e: b.zero,
    "root": lambda b, x, e: b.root(1, e),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    group=st.sampled_from(sorted(HOLE_GROUPS)),
    edits=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.sampled_from(sorted(HOLE_VALUES))),
                   min_size=1, max_size=3),
    line=st.sampled_from(["free", "row", "column"]),
    missing=st.booleans(),
)
# two holes in one row, two in one column, and a bump that is itself a root (1 + z^2 = z in Z[z_6])
@example(group="Z6", edits=[(1, 2, "plus three"), (1, 4, "fraction")], line="free", missing=False)
@example(group="Z6", edits=[(1, 2, "fraction"), (4, 2, "zero")], line="free", missing=False)
@example(group="Z6", edits=[(1, 2, "plus one")], line="free", missing=False)
@example(group="Z4", edits=[(2, 3, "fraction")], line="free", missing=True)
def test_masked_cycle_matches_the_backend_folds(group, edits, line, missing):
    g = make_group(GroupSpec.finite_abelian(HOLE_GROUPS[group]))
    b, n = exact_backend_for(g), g.order
    columns = {t: dict(col) for t, col in fourier(g, b).columns.items()}
    cells = [(i % n, j % n, value) for i, j, value in edits]
    if line != "free" and len(cells) > 1:
        # the second edit moved into the first one's row or column
        (i, j, _), (r, c, value) = cells[:2]
        cells[1] = (i, c, value) if line == "row" else (r, j, value)
    for i, j, value in cells:
        columns[j][i] = HOLE_VALUES[value](b, columns[j][i], g.exponent)
    if missing:
        del columns[cells[0][1]][cells[0][0]]
    with (mock.patch.object(hopf, "_root_sums", wraps=hopf._root_sums) as sums,
          mock.patch.object(hopf, "_apply", wraps=hopf._apply) as applies):
        rep = cycle_of(g, b, columns)
    # repr of every stage, and of each hom condition, whose witness a stage only names
    assert [repr(s) for s in rep.stages] == [repr(s) for s in backend_stages(g, b, rep.transform)]
    assert [[repr(c) for c in side] for side in check_linear_hom(rep.transform)] == unshared_reprs(rep.transform)
    read = rep.transform._dense
    if missing:
        # a missing entry drops the read: every fold takes the backend path, and only the dual
        # side's table, all roots, is summed as exponents
        assert read is None and sums.call_count == 1
        return
    holes = sorted([i, j] for j, col in columns.items() for i, x in col.items() if b.read([[x]]).item() < 0)
    assert rep.transform._holes == holes and np.argwhere(read < 0).tolist() == holes
    # the gram, the dual side's gram and the composite are one root-sum call each, and the hom and
    # antipode folds run on the read: each unital fold's one apply is all there is
    assert sums.call_count == (2 if columns == fourier(g, b).columns else 3)
    assert applies.call_count == (1 if hopf._transpose(columns) == columns else 2)


@pytest.mark.parametrize("holes", ["half", "all"])
@pytest.mark.parametrize("orders", [[6], [2, 4]], ids=str)
def test_a_map_mostly_of_holes_folds_on_its_read(monkeypatch, orders, holes):
    g = make_group(GroupSpec.finite_abelian(orders))
    b, n = exact_backend_for(g), g.order
    columns = {t: dict(col) for t, col in fourier(g, b).columns.items()}
    cells = list(itertools.product(range(n), repeat=2))
    for i, j in cells[::2] if holes == "half" else cells:
        # not symmetric, so the transpose folds apart
        columns[j][i] = b.add(columns[j][i], b.from_int(3 + i))
    calls = counting_hom_work(monkeypatch)
    with mock.patch.object(hopf, "_root_sums", wraps=hopf._root_sums) as sums:
        rep = cycle_of(g, b, columns)
    applied = calls["multiplicative"]
    assert [repr(s) for s in rep.stages] == [repr(s) for s in backend_stages(g, b, rep.transform)]
    # however many terms touch a hole, every fold runs on the read: the hom folds apply no map, and
    # the gram, the dual side's gram and the composite are one root-sum call each
    assert applied == 0
    assert sums.call_count == 3


def test_a_bump_that_is_a_root_is_read_from_the_value():
    g = make_group(GroupSpec.finite_abelian([6]))
    b = exact_backend_for(g)
    rep = duality_cycle(g, b, perturb=(1, 2))
    # character 1 at element 2 is z^2, bumped to 1 + z^2 = z: the exponent is the value's, not the table's
    assert rep.transform.columns[2][1] == b.root(1, 6)
    assert rep.transform._dense[1, 2] == 1
    assert not rep.passed
    assert [s.name for s in rep.stages if not s.passed] == ["transform-hom", "transpose-hom",
                                                          "transpose-columns", "unitarity", "cycle-identity"]


@pytest.mark.parametrize("kind", ["cyclotomic", "float"])
def test_the_cycle_reads_each_dense_operand_once(monkeypatch, kind):
    g = make_group(GroupSpec.finite_abelian([16]))
    b = guard_backend(g, kind)
    reads = []
    read = type(b).read
    monkeypatch.setattr(type(b), "read", lambda self, rows: reads.append(len(rows)) or read(self, rows))

    def dense_reads(*perturb):
        reads.clear()
        duality_cycle(g, b, *perturb)
        # a map's read has a row per basis vector; each hom fold also reads its diagonal, one row
        return reads.count(g.order)

    # the map and the dual side's table, each read once for the hom fold, the gram and the composite
    assert dense_reads() == 2
    # perturbed, the transpose folds apart: it is a map of its own, read once too
    assert dense_reads((1, 2)) == 3


def awkward_floats(rng, size, top):
    """size random float64 values mixing signed zeros, subnormals, tiny normals whose products are
    subnormal, magnitudes up to top and ordinary values."""
    def one():
        k = rng.random()
        if k < 0.1:
            return rng.choice([0.0, -0.0])
        if k < 0.2:
            return rng.uniform(-1, 1) * 2.0**-1074 * rng.randrange(1, 2**52)
        if k < 0.3:
            return rng.uniform(-1, 1) * 1e-160
        if k < 0.45:
            return rng.uniform(-1, 1) * top
        return rng.uniform(-4, 4)
    return np.array([one() for _ in range(size)])


def bits(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("seed", range(3))
def test_split_real_product_is_cpythons_complex_product(seed):
    # the float array folds multiply as scalars.times does; CPython's complex * is the reference
    xr, xi, yr, yi = (awkward_floats(random.Random(4 * seed + k), 4096, 1e150) for k in range(4))
    for step in (1, 3):   # contiguous and strided operands
        re, im = times((xr[::step], xi[::step]), (yr[::step], yi[::step]))
        want = [bits(complex(a, b) * complex(c, d))
                for a, b, c, d in zip(xr[::step], xi[::step], yr[::step], yi[::step])]
        assert [bits(complex(r, i)) for r, i in zip(re, im)] == want
        # the factors swapped, as the transposed composite forms each term: the same bits
        re, im = times((yr[::step], yi[::step]), (xr[::step], xi[::step]))
        assert [bits(complex(r, i)) for r, i in zip(re, im)] == want


@pytest.mark.parametrize("seed", range(3))
def test_numpy_hypot_is_abs_of_a_complex(seed):
    # the float array folds take residuals with np.hypot; the backend's residual is abs(a - b)
    re, im = (awkward_floats(random.Random(2 * seed + k), 4096, 1e300) for k in range(2))
    for step in (1, 3):
        got = np.hypot(re[::step], im[::step])
        assert [x.hex() for x in got.tolist()] == [abs(complex(a, b)).hex() for a, b in zip(re[::step], im[::step])]


FLOAT_CYCLE_GROUPS = {
    **{f"Z{n}": [n] for n in range(1, 25)},
    **{f"Z{a}xZ{c}": [a, c] for a, c in ((2, 2), (2, 6), (3, 6), (2, 12), (4, 6))},
    "Z2xZ2xZ4": [2, 2, 4],
}


def stage_bits(report):
    return [(s.name, s.passed, s.residual.hex(), s.detail) for s in report.stages]


def cycle_of(g, b, columns):
    """duality_cycle of g with its character-table map's columns replaced by columns."""
    phi = fourier(g, b)
    with mock.patch.object(hopf, "fourier", lambda *_: LinearMap(phi.domain, phi.codomain, columns)):
        return duality_cycle(g, b)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    group=st.sampled_from(sorted(FLOAT_CYCLE_GROUPS)),
    tolerance=st.sampled_from([1e-20, 1e-15, 1e-12, 1e-9, 1e-6, 0.5]),
    bumps=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23),
                             st.sampled_from([1e-14, 1e-11, 1e-8, 1e-3, 1.0]),
                             st.floats(-2, 2), st.floats(-2, 2)), max_size=3),
)
def test_float_array_path_gives_the_python_paths_bits(group, tolerance, bumps):
    g = make_group(GroupSpec.finite_abelian(FLOAT_CYCLE_GROUPS[group]))
    b = make_backend("float", tolerance=tolerance)
    columns = {t: dict(col) for t, col in fourier(g, b).columns.items()}
    for i, j, size, re, im in bumps:
        columns[j % g.order][i % g.order] += complex(re, im) * size
    got = cycle_of(g, b, columns)
    assert got.transform._dense is not None
    phi = LinearMap(got.transform.domain, got.transform.codomain, columns)
    with mock.patch.object(ComplexFloatBackend, "read", return_value=None):
        # the Python path: every fold summed through the backend
        want = cycle_of(g, b, columns)
        want_hom = check_linear_hom(phi)
    assert want.transform._dense is None
    assert stage_bits(got) == stage_bits(want)
    # each hom condition's own witness too, which a stage only names
    assert repr(check_linear_hom(got.transform)) == repr(want_hom)


@pytest.mark.parametrize("edit", ["missing", "rows out of order", "columns out of order", "inf", "nan",
                                  "past the bound", "a float", "cyclotomic"])
def test_the_float_read_falls_back(edit):
    g = make_group(GroupSpec.finite_abelian([6]))
    b = exact_backend_for(g) if edit == "cyclotomic" else make_backend("float")
    phi = fourier(g, b)
    columns = {t: dict(col) for t, col in phi.columns.items()}
    entries = {"inf": complex(math.inf, 0.0), "nan": complex(0.0, math.nan),
               "past the bound": complex(0.0, 2.0**301), "a float": 0.5}
    if edit == "missing":
        del columns[2][1]
    elif edit == "rows out of order":
        columns[2] = dict(reversed(columns[2].items()))
    elif edit == "columns out of order":
        columns = dict(reversed(columns.items()))
    elif edit in entries:
        columns[2][1] = entries[edit]
    if edit == "cyclotomic":
        # exact values are no complex numbers: the float backend reads none of them
        assert make_backend("float").read([list(col.values()) for col in columns.values()]) is None
        return
    assert LinearMap(phi.domain, phi.codomain, columns)._dense is None
    # every fold takes the Python path, as when the read is switched off
    rep = cycle_of(g, b, columns)
    assert rep.transform._dense is None
    with mock.patch.object(ComplexFloatBackend, "read", return_value=None):
        assert stage_bits(rep) == stage_bits(cycle_of(g, b, columns))


def row_hom_pairs(b, m, d, law):
    """The float hom fold over every pair (i, j), one row i at a time, each row's first failing and
    first worst cells kept and the fold's two picked from those: the oracle of ``_float_hom_pairs``,
    which leaves out mirrored pairs and folds the rest in blocks."""
    n, tolerance = len(law), b.tolerance
    images = tuple(p.T.copy() for p in times((b.one.real, b.one.imag), m))
    columns = tuple(p.T.copy() for p in m)
    cells = []
    for i, row in enumerate(law):
        lhs = tuple(p[row] for p in images)
        rhs = times(times((m[0][:, i], m[1][:, i]), columns), d)
        res = np.hypot(lhs[0] - rhs[0], lhs[1] - rhs[1])
        for j, r in (divmod(f, n) for f in hopf._fold_cells(res, tolerance)):
            cells.append((res[j, r], f"({i},{j})", {r: complex(lhs[0][j, r], lhs[1][j, r])},
                          {r: complex(rhs[0][j, r], rhs[1][j, r])}))
    return [cells[f][1:] for f in hopf._fold_cells(np.array([c[0] for c in cells]), tolerance)]


# S3 commutes only in part; "non-Latin" is a random (5, 5) table that is no group law
HOM_LAWS = {"Z1": GroupSpec.finite_abelian([1]), "Z7": GroupSpec.finite_abelian([7]),
            "Z2xZ4": GroupSpec.finite_abelian([2, 4]), "S3": GroupSpec.symmetric(3), "non-Latin": None}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(HOM_LAWS)),
    block=st.sampled_from(["n", "middle", "n^3"]),
    tolerance=st.sampled_from([1e-20, 1e-12, 1e-9, 0.5]),
    seed=st.integers(0, 2**16),
    bumps=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                             st.sampled_from([1e-14, 1e-11, 1e-8, 1e-3, 1.0]),
                             st.floats(-2, 2), st.floats(-2, 2)), max_size=3),
)
def test_mirrored_blocks_hom_fold_matches_the_row_fold(name, block, tolerance, seed, bumps):
    b = make_backend("float", tolerance=tolerance)
    rng = np.random.default_rng(seed)
    if HOM_LAWS[name] is None:
        law = rng.integers(0, 5, size=(5, 5))
        values = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        d = tuple(rng.normal(size=5) for _ in range(2))
    else:
        # rows of multiplicative functions, so the unbumped map passes, and the diagonal one
        _, law, _, e = hopf._cayley_table(make_group(HOM_LAWS[name]))
        chars = hopf._multiplicative_functions(law, e, b)
        values = np.array([chars[r % len(chars)] for r in range(len(law))])
        d = np.ones(len(law)), np.zeros(len(law))
    n = len(law)
    for r, c, size, re, im in bumps:
        values[r % n, c % n] += complex(re, im) * size
    m = values.real.copy(), values.imag.copy()
    with mock.patch.object(hopf, "_HOM_BLOCK_CELLS", {"n": n, "middle": n * (n + 1) // 2, "n^3": n**3}[block]):
        got = hopf._float_hom_pairs(b, m, d, law)
    want = row_hom_pairs(b, m, d, law)
    assert repr(got) == repr(want)
    got, want = hopf.fold_checks("multiplicative", b, got), hopf.fold_checks("multiplicative", b, want)
    assert (repr(got), got.residual.hex()) == (repr(want), want.residual.hex())


# edits of an antipode s = {i: {p[i]: one}}, of dimension n >= 2: "none" and "a rotation" (no
# involution, unlike the inverse map) read as permutations, and every other one must not read, so the
# fold takes the _compose sums
READ_ANTIPODES = ("none", "a rotation")
ANTIPODE_EDITS = {
    "none": lambda b, s: s,
    "a rotation": lambda b, s: {i: {(i + 1) % len(s): x for x in c.values()} for i, c in s.items()},
    "coefficient 2": lambda b, s: {**s, 0: {k: b.add(x, x) for k, x in s[0].items()}},
    "missing column": lambda b, s: {i: c for i, c in s.items() if i != len(s) - 1},
    "two entries": lambda b, s: {**s, 0: {**s[0], **s[len(s) - 1]}},
    "not a bijection": lambda b, s: {**s, 0: dict(s[len(s) - 1])},
    "key out of range": lambda b, s: {**s, 0: {len(s): b.one}},
    "key -1": lambda b, s: {**s, 0: {-1: b.one}},
    "key True": lambda b, s: {i: {(True if k == 1 else k): x for k, x in c.items()} for i, c in s.items()},
    "key 1.0": lambda b, s: {i: {(1.0 if k == 1 else k): x for k, x in c.items()} for i, c in s.items()},
    "column key True": lambda b, s: {(True if i == 1 else i): c for i, c in s.items()},
}
# a new value for a float entry x: signed zeros, subnormals and parts at or near the read's bound keep
# the read; a part past it drops the read
FLOAT_BUMPS = {
    "-0 real": lambda x: complex(-0.0, x.imag),
    "-0 imag": lambda x: complex(x.real, -0.0),
    "+0, -0": lambda x: complex(0.0, -0.0),
    "subnormal": lambda x: complex(-5e-324, x.imag),
    "at the bound": lambda x: complex(2.0**300, x.imag),
    "near the bound": lambda x: complex(x.real, -2.0**300 * (1 - 2.0**-52)),
    "within the tolerance": lambda x: x + 1e-12,
    "plus one": lambda x: x + 1,
    "past the bound": lambda x: complex(2.0**300 * (1 + 2.0**-52), 0.0),
}
ANTIPODE_GROUPS = {
    **{f"Z{n}": [n] for n in range(2, 9)},
    **{f"Z{a}xZ{c}": [a, c] for a, c in ((2, 2), (2, 3), (3, 3))},
}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    group=st.sampled_from(sorted(ANTIPODE_GROUPS)),
    kind=st.sampled_from(["float", "cyclotomic"]),
    # a map of random roots (exact) or random complexes (float), whose residuals tell the cells apart,
    # in place of the character table
    seed=st.one_of(st.none(), st.integers(0, 2**16)),
    shape=st.sampled_from(["square", "transposed", "non-square"]),
    # about half the examples read, half must not
    edit=st.one_of(st.sampled_from(READ_ANTIPODES), st.sampled_from(sorted(ANTIPODE_EDITS))),
    # the antipodes edited; on both sides, two rotations, neither of which is its own inverse
    side=st.sampled_from(["domain", "codomain", "both"]),
    bumps=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=3),
)
@example(group="Z4", kind="float", seed=None, shape="square", edit="none", side="domain",
         bumps=[(1, 2, 0), (3, 1, 1)])
@example(group="Z6", kind="cyclotomic", seed=None, shape="square", edit="none", side="domain",
         bumps=[(1, 2, 1)])
# two holes that the antipode condition compares with each other: M[-s, i] against M[s, -i]
@example(group="Z6", kind="cyclotomic", seed=None, shape="square", edit="none", side="domain",
         bumps=[(1, 2, 0), (5, 4, 2)])
# a codomain antipode that sends two basis vectors to one: S_k phi then adds two entries of a column
@example(group="Z5", kind="float", seed=1, shape="square", edit="not a bijection", side="codomain",
         bumps=[(0, 0, 6)])
def test_read_antipode_and_columns_folds_match_the_generic_folds(group, kind, seed, shape, edit, side, bumps):
    g = make_group(GroupSpec.finite_abelian(ANTIPODE_GROUPS[group]))
    b, n = guard_backend(g, kind), g.order
    phi = fourier(g, b)
    if seed is not None:
        rng = random.Random(seed)
        phi = LinearMap(phi.domain, phi.codomain, {j: {i: b.root(rng.randrange(g.exponent), g.exponent) if b.exact
                                                       else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                                       for i in range(n)} for j in range(n)})
    if shape == "non-square":
        # one row fewer: an n - 1 dimensional codomain
        codomain = function_algebra(make_group(GroupSpec.finite_abelian([n - 1])), b)
        phi = LinearMap(phi.domain, codomain, {j: {r: x for r, x in col.items() if r < n - 1}
                                               for j, col in phi.columns.items()})
    elif shape == "transposed":
        phi = LinearMap(dual_hopf(phi.codomain), dual_hopf(phi.domain), hopf._transpose(phi.columns))
    # the map to compare with in transpose-columns: phi with its first bumped entry made zero, a hole
    # of the exact read that may meet a hole of the bumped map
    i, j, _ = bumps[0]
    other = {t: dict(col) for t, col in phi.columns.items()}
    other[j % len(other)][i % len(other[j % len(other)])] = b.zero
    other = LinearMap(phi.domain, phi.codomain, other)
    columns = {t: dict(col) for t, col in phi.columns.items()}
    for i, j, v in bumps:
        j %= len(columns)
        i %= len(columns[j])
        x = columns[j][i]
        if b.exact:
            # a hole (plus one, plus three, a fraction, zero), or a root read from the value
            columns[j][i] = HOLE_VALUES[sorted(HOLE_VALUES)[v % len(HOLE_VALUES)]](b, x, g.exponent)
        else:
            columns[j][i] = FLOAT_BUMPS[sorted(FLOAT_BUMPS)[v]](x)
    sides = ["domain", "codomain"] if side == "both" else [side]
    phi = dataclasses.replace(phi, columns=columns, **{
        s: dataclasses.replace(getattr(phi, s), antipode=ANTIPODE_EDITS[edit](b, getattr(phi, s).antipode))
        for s in sides})
    past = not b.exact and any(max(abs(x.real), abs(x.imag)) > 2.0**300
                               for col in columns.values() for x in col.values())
    assert (phi._dense is None) == (shape == "non-square" or past)
    reads = phi._dense is not None and edit in READ_ANTIPODES
    assert reads == (hopf._permutation(phi.domain) is not None and hopf._permutation(phi.codomain) is not None
                     and phi._dense is not None)

    with mock.patch.object(hopf, "_compose", wraps=hopf._compose) as composed:
        got = hopf._antipode_hom(phi)
    want = antipode_hom(phi)
    # verdict, residual to the bit, witness; an antipode or map that does not read sums both sides
    assert (repr(got), got.residual.hex()) == (repr(want), want.residual.hex())
    assert composed.call_count == (0 if reads else 2)

    # transpose-columns: the bumped map against the other one, both read or every entry listed
    with mock.patch.object(hopf, "_entries", wraps=hopf._entries) as listed:
        got = hopf._transpose_columns(phi, other)
    want = hopf.fold_checks("transpose-columns", b, [("", hopf._entries(phi.columns),
                                                          hopf._entries(other.columns))])
    assert (repr(got), got.residual.hex()) == (repr(want), want.residual.hex())
    assert listed.call_count == (0 if phi._dense is not None else 2)


def test_signed_zero_parts_give_the_compose_paths_bits(tmp_path, capsys):
    g = make_group(GroupSpec.finite_abelian([4]))
    b = make_backend("float")
    phi = fourier(g, b)
    # Z4's character table with every part under 1e-15 made -0.0, and one entry moved to -0.0 + 0.5j
    columns = {j: {i: complex(*(-0.0 if abs(p) < 1e-15 else p for p in (x.real, x.imag))) for i, x in col.items()}
               for j, col in phi.columns.items()}
    columns[2][1] = complex(-0.0, 0.5)
    phi = LinearMap(phi.domain, phi.codomain, columns)
    entries = [x for col in columns.values() for x in col.values()]
    # the product by one that the _compose path forms moves the sign of a zero part
    assert any(bits(x * b.one) != bits(x) for x in entries) and any(bits(b.one * x) != bits(x) for x in entries)
    assert None not in (phi._dense, hopf._permutation(phi.domain), hopf._permutation(phi.codomain))
    got = hopf._antipode_hom(phi)
    with mock.patch.object(hopf, "_permutation", return_value=None):
        want = hopf._antipode_hom(phi)
    assert not got.passed
    assert (got.passed, got.residual.hex(), got.detail) == (want.passed, want.residual.hex(), want.detail)

    cfg = tmp_path / "z4.json"
    cfg.write_text(json.dumps({"command": "duality-cycle", "group": {"kind": "finite_abelian", "orders": [4]},
                               "backend": "float"}))
    reports = []
    for patches in ([], [mock.patch.object(hopf, "_permutation", return_value=None)]):
        out = tmp_path / f"out{len(reports)}"
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(hopf, "fourier", lambda *_: phi))
            for p in patches:
                stack.enter_context(p)
            assert main(["--config", str(cfg), "--out", str(out)]) == 1
        reports.append((out / "report.json").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(order=st.integers(1, 30), data=st.data())
def test_root_sums_match_compose(order, data):
    b = make_backend("cyclotomic", order=order)
    n = data.draw(st.integers(1, 6))
    exps = np.array(data.draw(st.lists(st.lists(st.integers(0, order - 1), min_size=n, max_size=n),
                                       min_size=n, max_size=n)), dtype=np.intp)
    columns = {c: {r: b.root(int(exps[r, c]), order) for r in range(n)} for c in range(n)}
    assert (b.read([[columns[c][r] for c in range(n)] for r in range(n)]) == exps).all()
    gram = hopf._compose(b, columns, hopf._conj(b, hopf._transpose(columns)))
    sums = hopf._root_sums(b, exps[:, None] - exps)
    # the same reduced tuple, int for int, as the backend's sum of the same roots
    assert [[tuple(sums[i, j].tolist()) for j in range(n)] for i in range(n)] == \
        [[gram[j][i] for j in range(n)] for i in range(n)]
    # a keep mask drops terms: what is left is the backend's sum of the kept roots, zero for none,
    # and a mask over the last two axes drops the same terms of every leading row
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n**3, max_size=n**3))).reshape(n, n, n)
    kept = [[functools.reduce(b.add, (b.root(int(exps[i, k] - exps[j, k]), order)
                                      for k in range(n) if keep[i, j, k]), b.zero)
             for j in range(n)] for i in range(n)]
    masked = hopf._root_sums(b, exps[:, None] - exps, keep)
    assert [[tuple(masked[i, j].tolist()) for j in range(n)] for i in range(n)] == kept
    assert (hopf._root_sums(b, exps[:, None] - exps, keep[0]) ==
            hopf._root_sums(b, exps[:, None] - exps, np.broadcast_to(keep[0], (n, n, n)).copy())).all()
    # and the same entries listed against c I from either representation: the gram, and a
    # composite with one entry that differs
    assert hopf._against_identity(b, sums, n, n) == hopf._against_identity(b, gram, n, n)
    r, c, e = (data.draw(st.integers(0, m)) for m in (n - 1, n - 1, order - 1))
    composite = {j: {i: b.from_int(n if i == j else 0) for i in range(n)} for j in range(n)}
    composite[c][r] = b.add(composite[c][r], b.root(e, order))
    array = np.zeros((n, n, b.degree), dtype=np.int64)
    array[range(n), range(n), 0] = n
    array[r, c] = composite[c][r]
    listed = hopf._against_identity(b, array, n, n)
    assert listed == hopf._against_identity(b, composite, n, n)
    assert [k for k, _ in listed] == [(r, c)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["float", "cyclotomic"]), order=st.integers(1, 30), n=st.integers(1, 6),
       holes_in=st.sampled_from(["neither", "x", "y", "both"]), data=st.data())
def test_conj_product_matches_compose(kind, order, n, holes_in, data):
    # distinct operands, each with or without holes: the cycle never gives its second operand holes,
    # so only a direct test reaches that branch
    b = make_backend(kind) if kind == "float" else make_backend("cyclotomic", order=order)
    operands = []
    for side in ("x", "y"):
        if kind == "float":
            seed = data.draw(st.integers(0, 2**32 - 1))
            re, im = (awkward_floats(random.Random(seed + k), n * n, 1e150).reshape(n, n) for k in range(2))
            grid = [[complex(re[p, k], im[p, k]) for k in range(n)] for p in range(n)]
            operands.append((grid, ((re, im), {})))
            continue
        exps = np.array(data.draw(st.lists(st.integers(0, order - 1), min_size=n * n, max_size=n * n)),
                        dtype=np.intp).reshape(n, n)
        grid = [[b.root(int(exps[p, k]), order) for k in range(n)] for p in range(n)]
        holes = {}
        if holes_in in (side, "both"):
            cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       min_size=1, unique=True))
            for p, k in cells:
                value = HOLE_VALUES[data.draw(st.sampled_from(sorted(HOLE_VALUES)))]
                grid[p][k] = holes[p, k] = value(b, grid[p][k], order)
                exps[p, k] = -1
        operands.append((grid, (exps, holes)))
    (x, x_read), (y, y_read) = operands
    product, holes = hopf._conj_product(b, x_read, y_read)
    # the oracle: sparse columns summed through the backend, entry (p, q) at [q][p]
    x_cols = {k: {p: x[p][k] for p in range(n)} for k in range(n)}
    y_cols = {k: {q: y[q][k] for q in range(n)} for k in range(n)}
    want = hopf._compose(b, x_cols, hopf._conj(b, hopf._transpose(y_cols)))
    if kind == "float":
        # every entry, to the bit: sparse float columns list them all
        assert holes is None
        got = {q: {p: complex(product[0][p, q], product[1][p, q]) for p in range(n)} for q in range(n)}
        assert ([(k, bits(v)) for k, v in hopf._against_identity(b, got, n, n)]
                == [(k, bits(v)) for k, v in hopf._against_identity(b, want, n, n)])
        return
    assert bool(holes) == (holes_in != "neither")

    def folded(listed, scale):
        target = b.from_int(scale)
        return hopf.fold_checks("", b, ((str(ij), {0: x}, {0: target if ij[0] == ij[1] else b.zero})
                                        for ij, x in listed))

    for scale in (0, n):
        got, oracle = hopf._against_identity(b, product, n, scale, holes), hopf._against_identity(b, want, n, scale)
        # the array listing also holds every entry a hole sum touches, equal or not, for the fold to
        # decide: it lists what the oracle does, with the same values, and folds alike
        assert dict(got).items() >= dict(oracle).items()
        assert folded(got, scale) == folded(oracle, scale)


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
def test_unitarity_of_a_map_between_unequal_dimensions(kind):
    b = make_backend("float") if kind == "float" else make_backend("cyclotomic", order=6)
    domain = group_algebra(make_group(GroupSpec.finite_abelian([2])), b)
    codomain = function_algebra(make_group(GroupSpec.finite_abelian([3])), b)
    # one entry, 1 + z6: the gram's (0, 0) entry is |1 + z6|^2 = 3, the codomain's dimension,
    # while the target's diagonal is 2, the domain's
    phi = LinearMap(domain, codomain, {0: {0: b.add(b.one, b.root(1, 6))}})
    result = unitarity_check(phi)
    assert repr(result) == repr(backend_unitarity(phi))
    assert (result.passed, result.detail, result.residual) == (False, "rows (0,0)", 2.0)


def test_exponents_read_through_a_forwarding_backend():
    g = make_group(GroupSpec.finite_abelian([6]))
    b = exact_backend_for(g)
    phi = fourier(g, b)
    # a wrapper that forwards every attribute, as a counting proxy does
    forwarded = LinearMap(dataclasses.replace(phi.domain, backend=Recording(b)), phi.codomain, phi.columns)
    assert isinstance(phi._dense, np.ndarray) and (forwarded._dense == phi._dense).all()


def test_exact_unitarity_makes_no_backend_mul(monkeypatch):
    g = make_group(GroupSpec.finite_abelian([12]))
    b = exact_backend_for(g)
    phi = fourier(g, b)
    muls = []
    mul = CyclotomicBackend.mul
    monkeypatch.setattr(CyclotomicBackend, "mul", lambda self, x, y: muls.append((x, y)) or mul(self, x, y))
    result = unitarity_check(phi)
    assert result.passed and result.residual == 0.0
    assert muls == []


@pytest.mark.parametrize("perturb", [(6, 6), (1, 2)])
@pytest.mark.parametrize("order", [12, 24])
def test_perturbed_exact_cycle_multiplies_only_around_its_hole(monkeypatch, order, perturb):
    g = make_group(GroupSpec.finite_abelian([order]))
    b = exact_backend_for(g)
    muls = []
    mul = CyclotomicBackend.mul
    monkeypatch.setattr(CyclotomicBackend, "mul", lambda self, x, y: muls.append(x) or mul(self, x, y))
    duality_cycle(g, b)
    unperturbed = len(muls)
    muls.clear()
    rep = duality_cycle(g, b, perturb)
    assert rep.transform._holes == [list(perturb)]
    # the bumped entry (2 and 1 + z^2 at Z12, 0 and 1 + z^2 at Z24) is a hole of the exponent
    # read, and only the terms that touch it go through the backend: about 2n hom entries per
    # map, 2n - 1 gram terms and n composite terms, beside the pairs each hom fold compares.
    # Measured 143 and 263 over the unperturbed cycle's 300 muls at Z12, 299 and 551 over its
    # 1,176 at Z24; summing every term through the backend made 7,356 and 10,968 at Z12, 57,048
    # and 85,296 at Z24
    assert len(muls) - unperturbed <= 25 * order


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
@pytest.mark.parametrize("group", ["S3", "Z6", "Z2xZ2"])
def test_reused_axiom_lists_match_direct_check(monkeypatch, group, kind, corrupt):
    spec = {"S3": {"kind": "symmetric", "degree": 3}, "Z6": {"kind": "finite_abelian", "orders": [6]},
            "Z2xZ2": {"kind": "finite_abelian", "orders": [2, 2]}}[group]
    g = make_group(GroupSpec(**spec))
    b = guard_backend(g, kind)
    if corrupt:
        # a function algebra with one antipode entry doubled, and its dual as
        # the group algebra: the failing rows tell an algebra from its dual
        def bad_functions(grp, backend):
            h = function_algebra(grp, backend)
            return dataclasses.replace(h, antipode={**h.antipode, 1: {1: backend.from_int(2)}})

        monkeypatch.setattr(cli, "function_algebra", bad_functions)
        monkeypatch.setattr(cli, "group_algebra", lambda grp, backend: dual_hopf(bad_functions(grp, backend)))
    cfg = cli.parse_config({"command": "hopf-axioms", "group": spec, "algebra": "both", "backend": kind})
    checks = [CheckResult(**c) for c in cli.run_command(cfg)[0]["checks"]]
    # the group algebra's two lists follow the function algebra's and are
    # reused from them, swapped
    assert len(checks) == 24
    assert all(c.passed for c in checks) != corrupt
    for prefix, got, want in zip(("group", "group-dual"), (checks[12:18], checks[18:]),
                                 check_hopf_axioms(cli.group_algebra(g, b))):
        assert [repr(c) for c in got] == [repr(dataclasses.replace(c, name=f"{prefix}/{c.name}")) for c in want]


def test_hopf_algebra_eq_compares_structure_not_names():
    g = make_group(GroupSpec.symmetric(3))
    b = make_backend("cyclotomic", order=6)
    h, k = function_algebra(g, b), group_algebra(g, b)
    assert dual_hopf(h) == k and h == dual_hopf(k)
    assert dual_hopf(h).labels != k.labels
    assert h != k
    # labels are for display: two algebras that differ only in them are equal
    renamed = dataclasses.replace(k, labels=tuple(f"x{i}" for i in range(k.dim)))
    assert renamed == k and not renamed != k
    two = b.from_int(2)
    for changed in (
        {"dim": 7},
        {"backend": make_backend("cyclotomic", order=12)},
        {"mul": {**k.mul, (0, 0): {0: two}}},
        {"unit": {0: two}},
        {"comul": {**k.comul, 0: {(0, 0): two}}},
        {"counit": {**k.counit, 0: two}},
        {"antipode": {**k.antipode, 0: {0: two}}},
    ):
        assert k != dataclasses.replace(k, **changed), changed
    # literal, not within the float tolerance that hopf_equal allows
    f = group_algebra(g, make_backend("float"))
    near = dataclasses.replace(f, unit={0: 1 + 1e-12})
    assert hopf_equal(f, near)[0] and f != near


def test_symmetric_map_with_unequal_duals_checks_both_sides():
    # pulling functions on Z3 back along the swap of 0 and 1: a symmetric
    # matrix and an algebra map, but the swap is no group automorphism, so
    # the transpose between the duals is not multiplicative
    g = make_group(GroupSpec.finite_abelian([3]))
    b = make_backend("cyclotomic", order=3)
    h = function_algebra(g, b)
    phi = LinearMap(h, h, {0: {1: b.one}, 1: {0: b.one}, 2: {2: b.one}})
    hom, transpose_hom = check_linear_hom(phi)
    assert hom[0].passed and not transpose_hom[0].passed
    assert [[repr(c) for c in side] for side in (hom, transpose_hom)] == unshared_reprs(phi)


def dense_columns(columns, n):
    return isinstance(columns, dict) and len(columns) == n and all(len(col) == n for col in columns.values())


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
@pytest.mark.parametrize("edit", [None, "bump", "equal but for a zero's sign", "two unequal holes"])
def test_a_bitwise_symmetric_read_with_no_hole_is_its_own_transpose(kind, edit):
    g = make_group(GroupSpec.finite_abelian([6]))
    b = make_backend("float") if kind == "float" else exact_backend_for(g)
    phi = fourier(g, b)
    columns = {t: dict(col) for t, col in phi.columns.items()}
    if edit == "bump":
        columns[2][1] = b.add(columns[2][1], b.one)
    elif edit == "equal but for a zero's sign":
        # floats: the read differs in one bit; cyclotomic: equal roots, so the read is symmetric
        columns[1][2], columns[2][1] = (complex(1.0, 0.0), complex(1.0, -0.0)) if kind == "float" else (b.one, b.one)
    elif edit == "two unequal holes":
        # exact: both read as -1, so only the values tell them apart; floats: an asymmetric read
        columns[1][2], columns[2][1] = b.from_int(2), b.from_int(3)
    phi = LinearMap(phi.domain, phi.codomain, columns)
    own = edit is None or (edit == "equal but for a zero's sign" and kind == "cyclotomic")
    with mock.patch.object(hopf, "_transpose", wraps=hopf._transpose) as spy:
        got = check_linear_hom(phi)
    assert any(dense_columns(c.args[0], 6) for c in spy.call_args_list) is not own
    with mock.patch.object(hopf, "_self_transpose", return_value=False):
        assert repr(got) == repr(check_linear_hom(phi))


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
@pytest.mark.parametrize("perturb", [None, (1, 2)])
def test_the_cycle_transposes_only_a_map_that_is_not_symmetric(kind, perturb):
    # the dual side's table is symmetric, and so is the map unless it is perturbed
    g = make_group(GroupSpec.finite_abelian([6]))
    b = make_backend("float") if kind == "float" else exact_backend_for(g)
    with mock.patch.object(hopf, "_transpose", wraps=hopf._transpose) as spy:
        got = duality_cycle(g, b, perturb)
    assert sum(dense_columns(c.args[0], 6) for c in spy.call_args_list) == (perturb is not None)
    with mock.patch.object(hopf, "_self_transpose", return_value=False):
        assert stage_bits(got) == stage_bits(duality_cycle(g, b, perturb))


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


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
@pytest.mark.parametrize("orders", [[1], [6], [2, 2], [12], [2, 6], [3, 4, 5]], ids=str)
def test_character_table_roots_are_the_backends(orders, kind):
    # each value is the one backend.root gives for its power, to the bit on floats
    g = make_group(GroupSpec.finite_abelian(orders))
    b = guard_backend(g, kind)
    e = g.exponent
    elems = list(g.elements())
    want = {j: {i: b.root(sum(mk * tk * e // nk for mk, tk, nk in zip(m, t, orders)) % e, e)
                for i, m in enumerate(elems)} for j, t in enumerate(elems)}
    got = hopf._character_table(g, b)
    if kind == "float":
        got, want = ({j: {i: bits(x) for i, x in col.items()} for j, col in table.items()} for table in (got, want))
    assert got == want


def test_dual_group_is_the_index_group():
    g = make_group(GroupSpec.finite_abelian([2, 4], label="G"))
    d = dual_group(g)
    # a plain group on the same orders: its elements are the character indices
    assert (d.kind, d.orders, d.label) == ("finite_abelian", (2, 4), "G^")
    assert list(d.elements()) == list(g.elements())
    assert dual_group(d).orders == g.orders
    # they index the rows of the character table, the points of fourier's codomain
    phi = fourier(g, make_backend("float"))
    assert phi.codomain.labels == tuple("1_" + d.format(m) for m in d.elements())


def test_fourier_is_hom_and_unitary():
    for orders in ([2], [4], [2, 2], [6]):
        g = make_group(GroupSpec.finite_abelian(orders))
        b = exact_backend_for(g)
        phi = fourier(g, b)
        for out in check_linear_hom(phi):
            assert tuple(c.name for c in out) == HOM_CHECKS
            for c in out:
                assert c.passed and c.residual == 0.0, (orders, c)
        u = unitarity_check(phi)
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


@pytest.mark.parametrize("perturb, message", [
    ((3, 0), "perturb[0]: must be <= 2, got 3"),
    ((0, 3), "perturb[1]: must be <= 2, got 3"),
    ((-1, 0), "perturb[0]: must be >= 0, got -1"),
    ((0, -1), "perturb[1]: must be >= 0, got -1"),
])
def test_duality_cycle_rejects_perturb_outside_the_matrix(perturb, message):
    g = make_group(GroupSpec.finite_abelian([3]))
    with pytest.raises(ValueError) as exc:
        duality_cycle(g, make_backend("cyclotomic", order=3), perturb=perturb)
    assert str(exc.value) == message


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


def frontier_multiplicative_functions(law, e, backend, walks=None):
    """The search as it stood before one spanning tree served every candidate:
    a greedy generating set grown by re-walking frontiers, element orders by
    repeated steps, and a fresh frontier walk for each root assignment.  With
    a CountingMul backend, walks receives the mul operands of each kept
    candidate's walk, in call order, and not those of its audit."""
    def span(gens):
        reached, frontier = {e}, [e]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = law[x][g]
                    if y not in reached:
                        reached.add(y)
                        nxt.append(y)
            frontier = nxt
        return reached

    def element_order(g):
        acc, order = g, 1
        while acc != e:
            acc, order = law[acc][g], order + 1
        return order

    n = len(law)
    gens, closure = [], {e}
    for cand in range(n):
        if cand in closure:
            continue
        gens.append(cand)
        closure = span(gens)
        if len(closure) == n:
            break
    orders = [element_order(g) for g in gens]
    found = []
    for expos in itertools.product(*(range(o) for o in orders)):
        values = [None] * n
        values[e] = backend.one
        frontier = [e]
        assign = {g: backend.root(k, o) for g, k, o in zip(gens, expos, orders)}
        start = len(backend.calls) if walks is not None else 0
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = law[x][g]
                    if values[y] is None:
                        values[y] = backend.mul(values[x], assign[g])
                        nxt.append(y)
            frontier = nxt
        walked = backend.calls[start:] if walks is not None else []
        ok = True
        for a in range(n):
            for c in range(n):
                if not backend.eq(backend.mul(values[a], values[c]), values[law[a][c]]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            tup = tuple(values)
            if not any(all(backend.eq(a, c) for a, c in zip(tup, other)) for other in found):
                found.append(tup)
                if walks is not None:
                    walks.extend(walked)
    return found


class CountingMul:
    """A backend whose mul records its operands, in call order."""

    def __init__(self, backend):
        self.backend = backend
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def mul(self, x, y):
        self.calls.append((x, y))
        return self.backend.mul(x, y)


TABLE_GROUPS = {
    "S1": GroupSpec.symmetric(1), "S2": GroupSpec.symmetric(2), "S3": GroupSpec.symmetric(3),
    "S4": GroupSpec.symmetric(4), "Z1": GroupSpec.finite_abelian([1]), "Z7": GroupSpec.finite_abelian([7]),
    "Z12": GroupSpec.finite_abelian([12]), "Z2xZ2": GroupSpec.finite_abelian([2, 2]),
    "Z2xZ4": GroupSpec.finite_abelian([2, 4]), "Z3xZ3": GroupSpec.finite_abelian([3, 3]),
    "Z2xZ3xZ4": GroupSpec.finite_abelian([2, 3, 4]), "Z2xZ2xZ2": GroupSpec.finite_abelian([2, 2, 2]),
}


@settings(max_examples=80, derandomize=True, deadline=None)
@given(group=st.sampled_from(sorted(TABLE_GROUPS)), kind=st.sampled_from(["float", "cyclotomic"]),
       data=st.data())
def test_one_spanning_tree_matches_a_walk_per_candidate(group, kind, data):
    g = make_group(TABLE_GROUPS[group])
    _, law, _, e = hopf._cayley_table(g)
    # relabel the elements, so the greedy generating set and its tree vary
    perm = data.draw(st.permutations(range(len(law))))
    relabeled = [None] * len(law)
    for i, row in enumerate(law):
        relabeled[perm[i]] = [None] * len(law)
        for j, k in enumerate(row):
            relabeled[perm[i]][perm[j]] = perm[k]
    base = make_backend("float") if kind == "float" else make_backend("cyclotomic", order=g.exponent)
    want, got, walks = CountingMul(base), CountingMul(base), []
    expected = frontier_multiplicative_functions(relabeled, perm[e], want, walks)
    found = hopf._multiplicative_functions(np.array(relabeled, dtype=np.intp), perm[e], got)
    assert repr(found) == repr(expected)
    # both paths audit root exponents with no backend mul; the float path then makes each kept
    # row's walk muls, operand for operand and in order, and the cyclotomic one reads its roots
    assert len(walks) == (len(law) - 1) * len(found)
    assert repr(got.calls) == repr(walks if kind == "float" else [])


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


def test_group_part_brute_force_has_no_dimension_cap():
    # require_group_part_order is the one size rule; the library takes any dimension
    g = make_group(GroupSpec.finite_abelian([2] * 7))
    part = group_part(group_algebra(g, make_backend("float")), mode="brute_force")
    assert part.count == g.order == 128 and part.verified and part.closed_under_product


def test_group_part_modes_agree_when_the_product_is_not_pointwise():
    # a function algebra's coproduct (the group law) under the group algebra's convolution product:
    # grouplikes depend on the coproduct alone, so both modes find the characters of Z4
    z4 = make_group(GroupSpec.finite_abelian([4]))
    b = make_backend("cyclotomic", order=4)
    conv = group_algebra(z4, b)
    h = dataclasses.replace(function_algebra(z4, b), mul=conv.mul, unit=conv.unit)
    closed, brute = group_part(h, "closed_form"), group_part(h, "brute_force")
    assert closed.count == 4 and closed.verified and closed.worst_residual == 0.0
    assert brute.vectors == closed.vectors
    assert (brute.verified, brute.closed_under_product) == (closed.verified, closed.closed_under_product)


def test_closed_form_reads_the_coproduct_not_the_construction():
    z4 = make_group(GroupSpec.finite_abelian([4]))
    b = make_backend("cyclotomic", order=4)
    # a function algebra given the group algebra's coproduct: its grouplikes are the point masses
    h = dataclasses.replace(function_algebra(z4, b), comul=group_algebra(z4, b).comul)
    part = group_part(h, "closed_form")
    assert part.vectors == tuple(h.basis(i) for i in range(4))
    assert part.verified and part.worst_residual == 0.0


def test_closed_form_on_tensor_products():
    b = make_backend("cyclotomic", order=6)
    z2, z3 = (make_group(GroupSpec.finite_abelian([n])) for n in (2, 3))
    for left, right in ((group_algebra, group_algebra), (function_algebra, function_algebra)):
        t = tensor_hopf(left(z2, b), right(z3, b))
        closed, brute = group_part(t, "closed_form"), group_part(t, "brute_force")
        assert closed.count == brute.count == 6
        assert closed.verified and closed.closed_under_product
        assert {frozenset(v.items()) for v in closed.vectors} == {frozenset(v.items()) for v in brute.vectors}
    # functions on Z2 times point masses of Z3: the coproduct is neither a law nor diagonal
    with pytest.raises(ValueError):
        group_part(tensor_hopf(function_algebra(z2, b), group_algebra(z3, b)), "closed_form")


def test_a_negative_coproduct_key_gives_no_law():
    h = function_algebra(make_group(GroupSpec.finite_abelian([4])), make_backend("float"))
    # 3 + 0 = 3: the term (3, 0) of comul[3] becomes (-1, 0), which would index row 3 from the end
    comul = {**h.comul, 3: {((-1, 0) if st == (3, 0) else st): c for st, c in h.comul[3].items()}}
    h = dataclasses.replace(h, comul=comul)
    assert hopf._monomial_law(h, coproduct=True) is None
    for mode in ("closed_form", "brute_force"):
        with pytest.raises(ValueError):
            group_part(h, mode)


class CountedItems(dict):
    """A dict that counts its items() calls."""
    items_calls = 0

    def items(self):
        self.items_calls += 1
        return super().items()


@pytest.mark.parametrize("spec", [GroupSpec.finite_abelian([6]), GroupSpec.symmetric(3)], ids=["Z6", "S3"])
def test_a_diagonal_tensor_gives_no_law_before_it_is_read(spec):
    g, b = make_group(spec), make_backend("float")
    # the group algebra's coproduct and the function algebra's product have n entries, not n^2
    for h, role in ((group_algebra(g, b), "comul"), (function_algebra(g, b), "mul")):
        tensor = CountedItems(getattr(h, role))
        h = dataclasses.replace(h, **{role: tensor})
        tensor.items_calls = 0   # HopfAlgebra lists its product once, to index it by rows
        assert hopf._monomial_law(h, coproduct=role == "comul") is None
        assert tensor.items_calls == 0


def closed_by_full_scan(h, vectors):
    """The closure verdict as a scan of the whole family for every product."""
    return all(hopf._contains(h.backend, vectors, mul_vec(h, v, w)) for v in vectors for w in vectors)


def closure_families():
    """(algebra, family, closed?) triples, closed ones from group_part and open ones made by hand."""
    for kind, orders in (("float", [2, 3]), ("cyclotomic", [2, 3]), ("float", [4])):
        g = make_group(GroupSpec.finite_abelian(orders))
        b = make_backend(kind, order=g.exponent)
        for build in (function_algebra, group_algebra):
            h = build(g, b)
            yield h, list(group_part(h).vectors), True
    s3 = make_group(GroupSpec.symmetric(3))
    for kind in ("float", "cyclotomic"):
        b = make_backend(kind, order=6)
        h = group_algebra(s3, b)
        deltas = list(group_part(h).vectors)
        # a corrupted cell: delta_1 * delta_2 = 2 delta_0, whose support is delta_0's
        two = b.add(b.one, b.one)
        yield dataclasses.replace(h, mul={**h.mul, (1, 2): {0: two}}), deltas, False
        # a product off the family's supports entirely
        yield dataclasses.replace(h, mul={**h.mul, (1, 2): {0: b.one, 3: b.one}}), deltas, False
    # float noise at the is_zero threshold: the product's support drops a key that
    # the family member keeps, yet the two are equal within the tolerance
    h = group_algebra(make_group(GroupSpec.finite_abelian([2])), make_backend("float", tolerance=1e-9))
    noisy = {0: 1 + 0j, 1: 1.2e-9 + 0j}
    yield dataclasses.replace(h, mul={(0, 0): {0: 1 + 0j, 1: 0.6e-9 + 0j}}), [noisy], True


def test_closure_buckets_match_the_full_scan():
    seen = collections.Counter()
    for h, vectors, closed in closure_families():
        assert hopf._closed_under_product(h, vectors) == closed_by_full_scan(h, vectors) == closed
        # the structure read, where it holds, gives the same verdict; the corrupted cells and the
        # float noise are not read
        read = hopf._closure_read(h, vectors)
        assert read in (None, closed)
        seen[closed, read is not None] += 1
    # read: the group algebras' point masses (3) and the exact characters (1); not read: the float
    # characters (2), the noisy family and the corrupted cells
    assert seen == {(True, True): 4, (True, False): 3, (False, False): 4}


class Unread:
    """A backend that forwards everything but its name, so no path that tells the cyclotomic
    backend by name applies."""

    name = "unread"

    def __init__(self, backend):
        self.backend = backend

    def __getattr__(self, name):
        return getattr(self.backend, name)


GROUP_PART_READS = ("_grouplike_basis", "_grouplike_read", "_closure_read")


def generic_group_part(h, mode):
    """group_part with every structure read off, as it stood before them: the reads return None, and
    the backend is reached only by name, so no backend-specific read applies.  Candidates are still
    audited on root exponents by _multiplicative_functions, as on every backend, and each kept row
    is valued by a chain of backend.mul, so this checks the reads and not the enumeration; the
    frontier oracle of test_one_spanning_tree_matches_a_walk_per_candidate checks that.  An error
    is returned as its repr."""
    with contextlib.ExitStack() as stack:
        for name in GROUP_PART_READS:
            stack.enter_context(mock.patch.object(hopf, name, return_value=None))
        return outcome(group_part, dataclasses.replace(h, backend=Unread(h.backend)), mode)


def outcome(f, *args):
    try:
        return repr(f(*args))
    except ValueError as err:
        return repr(err)


def relabeled(h, perm):
    """h with basis index i renamed perm[i] in all five tensors."""
    def vec(v):
        return {perm[i]: x for i, x in v.items()}

    return dataclasses.replace(
        h, mul={(perm[i], perm[j]): vec(c) for (i, j), c in h.mul.items()}, unit=vec(h.unit),
        comul={perm[k]: {(perm[i], perm[j]): x for (i, j), x in c.items()} for k, c in h.comul.items()},
        counit=vec(h.counit), antipode={perm[k]: vec(c) for k, c in h.antipode.items()})


# edits of one basis index k of a group_part algebra, as replace() keywords
GROUP_PART_EDITS = {
    "none": lambda h, k: {},
    "comul bump": lambda h, k: with_cell(h, "comul", k, lambda x: bumped(h.backend, x, Fraction(1, 2))),
    "mul drop": lambda h, k: {"mul": {key: c for key, c in h.mul.items() if key != (k, k)}},
    "mul bump": lambda h, k: with_cell(h, "mul", (k, k), lambda x: bumped(h.backend, x, Fraction(1, 2))),
}
GROUP_PART_GROUPS = {**TABLE_GROUPS, "Z6": GroupSpec.finite_abelian([6])}
GROUP_PART_BACKENDS = {**LAW_BACKENDS, "exact": lambda g, algebra: make_backend(
    "cyclotomic", order=g.exponent if algebra == "function" else 1)}


def expected_reads(algebra, kind, edit, mode, n):
    """The reads that hold on an edited algebra: an exponent read needs the cyclotomic backend, and
    each read its tensor unedited.  A function algebra of order 1 finds the point mass {0: one}; a
    function algebra's coproduct or a group algebra's, once edited, leaves closed_form with no
    vectors, and so does brute_force on a function algebra or an algebra of order 1."""
    exact = kind == "exact"
    points = algebra == "group" or n == 1
    comul, product = edit != "comul bump", edit not in ("mul drop", "mul bump")
    if not comul and (mode == "closed_form" or algebra == "function" or n == 1):
        return set()
    reads = {"_grouplike_read"} if points or (exact and comul) else set()
    if mode == "brute_force" and comul:
        reads.add("_grouplike_basis")
    if product and (points or exact):
        reads.add("_closure_read")
    return reads


@settings(max_examples=400, derandomize=True, deadline=None)
@given(group=st.sampled_from(sorted(GROUP_PART_GROUPS)), kind=st.sampled_from(sorted(GROUP_PART_BACKENDS)),
       algebra=st.sampled_from(["function", "group"]), edit=st.sampled_from(sorted(GROUP_PART_EDITS)),
       mode=st.sampled_from(["closed_form", "brute_force"]), data=st.data())
def test_group_part_reads_match_the_generic_path(group, kind, algebra, edit, mode, data):
    g = make_group(GROUP_PART_GROUPS[group])
    build = function_algebra if algebra == "function" else group_algebra
    backend = GROUP_PART_BACKENDS[kind]
    h = build(g, backend(g, algebra) if kind == "exact" else backend())
    # relabel the basis, so no law keeps its identity at 0 and the tensors list other orders
    h = relabeled(h, data.draw(st.permutations(range(h.dim))))
    h = dataclasses.replace(h, **GROUP_PART_EDITS[edit](h, data.draw(st.integers(0, h.dim - 1))))
    # each read, when it holds, gives what the generic function gives on the same arguments
    oracles = {
        "_grouplike_basis": lambda h, table: [hopf._is_grouplike(h, h.basis(i))[0] for i in range(h.dim)],
        "_grouplike_read": lambda h, table, v: hopf._is_grouplike(h, v),
        "_closure_read": lambda h, vectors: hopf._closed_under_product(h, vectors),
    }
    held = set()

    def spied(name, read):
        def call(*args):
            got = read(*args)
            if got is not None:
                held.add(name)
                assert repr(got) == repr(oracles[name](*args))
            return got
        return call

    with contextlib.ExitStack() as stack:
        for name in GROUP_PART_READS:
            stack.enter_context(mock.patch.object(hopf, name, spied(name, getattr(hopf, name))))
        got = outcome(group_part, h, mode)
    assert got == generic_group_part(h, mode)
    assert held == expected_reads(algebra, kind, edit, mode, h.dim)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(law=law_tables(), kind=st.sampled_from(sorted(LAW_BACKENDS)), data=st.data())
def test_reads_on_any_law_match_the_generic_functions(law, kind, data):
    n = len(law)
    b = make_backend("cyclotomic", order=12) if kind == "exact" else LAW_BACKENDS[kind]()
    table = np.array(law, dtype=np.intp)
    comul = {k: {} for k in range(n)}
    for i, row in enumerate(law):
        for j, k in enumerate(row):
            comul[k][(i, j)] = b.one
    # the law as a coproduct under the pointwise product, and as a product
    h = dataclasses.replace(law_algebra(law, b), mul={(m, m): {m: b.one} for m in range(n)}, comul=comul)
    basis = hopf._grouplike_basis(h, table)
    assert basis == [hopf._is_grouplike(h, h.basis(i))[0] for i in range(n)]
    # vectors of roots, most of them differing from their square at some cells
    roots = st.integers(0, 11).map(lambda k: b.root(k, 12))
    v = data.draw(st.dictionaries(st.integers(0, n - 1), roots))
    read = hopf._grouplike_read(h, table, v)
    assert read in (None, hopf._is_grouplike(h, v))
    # a nonempty vector of roots is read on the exact backend, a point mass {i: one} on a fibre
    # {(i, i)} on either backend
    point = len(v) == 1 and all(x == b.one and comul[i] == {(i, i): b.one} for i, x in v.items())
    assert (read is not None) == (kind == "exact" and bool(v) or point)
    family = data.draw(st.lists(st.lists(roots, min_size=n, max_size=n).map(lambda vals: dict(enumerate(vals))),
                                max_size=3))
    closed = hopf._closure_read(h, family)
    assert closed in (None, hopf._closed_under_product(h, family))
    assert closed is not None or kind != "exact"
    on_law = law_algebra(law, b)
    points = [on_law.basis(i) for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n))]
    closed = hopf._closure_read(on_law, points)
    assert closed in (None, hopf._closed_under_product(on_law, points))
    assert closed is not None


@pytest.mark.parametrize("degree", [2, 3])
def test_a_diagonal_product_missing_a_cell_is_not_closed(degree):
    g = make_group(GroupSpec.symmetric(degree))
    h = function_algebra(g, make_backend("cyclotomic", order=g.exponent))
    # without (0, 0) every product lacks index 0, so none is a character
    bad = dataclasses.replace(h, mul={key: c for key, c in h.mul.items() if key != (0, 0)})
    vectors = list(group_part(h).vectors)
    assert hopf._closure_read(bad, vectors) is None
    assert hopf._closure_read(h, vectors) is True
    for mode in ("closed_form", "brute_force"):
        part = group_part(bad, mode)
        assert not part.closed_under_product and part.verified
        assert repr(part) == generic_group_part(bad, mode)


@pytest.mark.parametrize("entry", ["zero", "not a root", "key out of range", "missing", "another root"])
def test_a_vector_off_the_characters_is_read_only_on_roots(entry):
    g = make_group(GroupSpec.finite_abelian([6]))
    b = make_backend("cyclotomic", order=6)
    h = function_algebra(g, b)
    table = np.array(hopf._monomial_law(h, coproduct=True), dtype=np.intp)
    characters = list(group_part(h).vectors)
    v = dict(characters[1])
    if entry == "missing":
        del v[2]
    else:
        values = {"zero": b.zero, "not a root": b.from_int(2), "another root": b.root(1, 6)}
        v[2 if entry != "key out of range" else 6] = values.get(entry, b.one)
    assert hopf._grouplike_read(h, table, characters[1]) == (True, 0.0)
    ok, residual = hopf._is_grouplike(h, v)
    assert not ok and residual > 0
    family = [v, *characters[2:]]
    assert not hopf._closed_under_product(h, family)
    # an entry that is not a root, or a key outside range(n), is not read; a missing entry, or a
    # root that makes no character, is read, with the differing cells' residuals
    read = entry in ("missing", "another root")
    assert hopf._grouplike_read(h, table, v) == ((ok, residual) if read else None)
    assert hopf._closure_read(h, family) is (False if entry == "another root" else None)


def test_point_mass_closure_on_a_law_makes_no_product():
    g = make_group(GroupSpec.symmetric(4))
    h = group_algebra(g, make_backend("cyclotomic", order=1))
    with mock.patch.object(hopf, "mul_vec", wraps=hopf.mul_vec) as products:
        for mode in ("closed_form", "brute_force"):
            part = group_part(h, mode)
            assert part.count == 24 and part.verified and part.closed_under_product
    assert products.call_count == 0


def test_exact_characters_make_no_backend_mul():
    g = make_group(GroupSpec.symmetric(4))
    counting = CountingMul(make_backend("cyclotomic", order=g.exponent))
    h = function_algebra(g, counting)
    table = np.array(hopf._monomial_law(h, coproduct=True), dtype=np.intp)
    part = group_part(h)
    assert part.count == 2 and part.verified and part.closed_under_product
    assert all(hopf._grouplike_read(h, table, v) == (True, 0.0) for v in part.vectors)
    # enumeration, the grouplike test and closure alike
    assert counting.calls == []


def test_tensor_of_cyclic_factors():
    b = make_backend("cyclotomic", order=6)
    z2 = make_group(GroupSpec.finite_abelian([2]))
    z3 = make_group(GroupSpec.finite_abelian([3]))
    t = tensor_hopf(function_algebra(z2, b), function_algebra(z3, b))
    assert t.dim == 6
    for c in itertools.chain(*check_hopf_axioms(t)):
        assert c.passed and c.residual == 0.0, c
    for c in product_iso_check(z2, z3, b):
        assert c.passed and c.residual == 0.0, c


@pytest.mark.parametrize("kind", ["float", "cyclotomic"])
@pytest.mark.parametrize("tensor, key, tag", [
    ("unit", None, "unit"), ("counit", None, "counit"), ("mul", (1, 4), "mul (1,4)"),
    ("comul", 3, "comul 3"), ("antipode", 5, "antipode 5"),
])
def test_tensor_iso_names_the_first_differing_cell(monkeypatch, kind, tensor, key, tag):
    b = make_backend("float") if kind == "float" else make_backend("cyclotomic", order=6)
    z2 = make_group(GroupSpec.finite_abelian([2]))
    z3 = make_group(GroupSpec.finite_abelian([3]))
    build = hopf.tensor_hopf

    def corrupted_tensor(h, k):
        t = build(h, k)
        value = getattr(t, tensor)
        if key is None:
            return dataclasses.replace(t, **{tensor: corrupted(value, 0, b, Fraction(1, 2))})
        cell = {**value.get(key, {})}
        first = next(iter(cell), 0 if tensor != "comul" else (0, 0))
        return dataclasses.replace(t, **{tensor: {**value, key: corrupted(cell, first, b, Fraction(1, 2))}})

    monkeypatch.setattr(hopf, "tensor_hopf", corrupted_tensor)
    for c in product_iso_check(z2, z3, b):
        assert not c.passed and c.detail == tag and c.residual == 0.5, c
    monkeypatch.undo()
    # passing rows carry no detail, and hopf_equal keeps its pair
    assert [c.detail for c in product_iso_check(z2, z3, b)] == ["", ""]
    h = function_algebra(z2, b)
    assert hopf_equal(h, h) == (True, 0.0)
    assert hopf_equal(h, function_algebra(z3, b)) == (False, float("inf"))


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
