"""The law views of ``hopf``: a monomial tensor stored as its (n, n) law array reads as the dict
of dicts the builders used to spell out, and the tensor-iso compare on law arrays folds as the
generic cell fold does."""

import dataclasses
import json
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitylab import hopf
from dualitylab.cli import main
from dualitylab.groups import DirectProductGroup, FiniteAbelianGroup, Group, GroupSpec, SymmetricGroup, make_group
from dualitylab.hopf import dual_hopf, function_algebra, group_algebra, tensor_hopf
from dualitylab.scalars import make_backend

BACKENDS = {
    "cyclotomic": lambda: make_backend("cyclotomic", order=1),
    "float": lambda: make_backend("float"),
}


def dict_algebra(build, g, b):
    """build(g, b) with its law tensor spelled out as the dicts the builders made before the views:
    the group algebra's n^2 one-entry product cells, or the function algebra's fibres, each in
    the order of that builder's loops."""
    h = build(g, b)
    law, n, one = hopf._cayley_table(g)[1].tolist(), h.dim, b.one
    if build is group_algebra:
        return dataclasses.replace(h, mul={(i, j): {law[i][j]: one} for i in range(n) for j in range(n)})
    comul: dict = {i: {} for i in range(n)}
    for i in range(n):
        for j in range(n):
            comul[law[i][j]][(i, j)] = one
    return dataclasses.replace(h, comul=comul)


class Listed(FiniteAbelianGroup):
    """A finite abelian group whose elements are listed from the start-th on, so that index 0 is not
    the identity and the first row of its law is not range(n).  Its law is the generic ``mul`` loop,
    as the index arithmetic of ``FiniteAbelianGroup.law`` holds in that class's own order only."""

    law = Group.law

    def __init__(self, spec, start):
        super().__init__(spec)
        self.start = start

    def elements(self):
        elems = list(super().elements())
        return iter(elems[self.start:] + elems[:self.start])


def groups():
    symmetric = st.integers(1, 4).map(GroupSpec.symmetric).map(make_group)
    orders = st.lists(st.integers(1, 4), min_size=1, max_size=2).filter(lambda orders: np.prod(orders) <= 8)
    abelian = orders.map(GroupSpec.finite_abelian).map(make_group)
    listed = st.builds(lambda orders, start: Listed(GroupSpec.finite_abelian(orders), start % int(np.prod(orders))),
                       orders, st.integers(1, 7))
    return st.one_of(symmetric, abelian, listed)


def derived(draw, build, g, b):
    """A view-backed algebra and the dict-backed one it stands for, through duals and tensor
    products (by a function or a group algebra, or its dual): each dict side is made by the dict
    code paths alone."""
    view, plain = build(g, b), dict_algebra(build, g, b)
    for step in draw(st.lists(st.sampled_from(["dual", "tensor"]), max_size=2)):
        if step == "dual":
            view, plain = dual_hopf(view), dual_hopf(plain)
        elif view.dim <= 8:
            other = draw(groups().filter(lambda k: k.order <= 4))
            k_build, k_dual = draw(st.sampled_from([function_algebra, group_algebra])), draw(st.booleans())
            k_view, k_plain = k_build(other, b), dict_algebra(k_build, other, b)
            if k_dual:
                k_view, k_plain = dual_hopf(k_view), dual_hopf(k_plain)
            view, plain = tensor_hopf(view, k_view), tensor_hopf(plain, k_plain)
    return view, plain


# 2**61 - 1 hashes to 0, and 2**61 and 2.0**61 to 1, but none of them equals a point
MISSES = [-1, 10**6, "0", None, (0,), (0, 0, 0), (-1, 0), (0, 10**6), 1.5, "a", float("nan"), 2**61 - 1, 2**61,
          2.0**61]
HITS_AS_OTHER_TYPES = [True, 1.0, np.int64(1), (True, 0), (np.int64(0), 1.0), Fraction(1), Decimal(1), 1 + 0j,
                       np.float64(1.0), np.bool_(True), -0.0]


def assert_reads_match(view, plain, depth=1):
    """Every read the library makes of a Mapping, on view and on plain, alike, in any listing
    order: each lists the same keys once, with the same entries."""
    assert len(view) == len(plain) == len(list(view)) == len(view.items())
    assert set(view) == set(plain.keys()) and view.keys() == plain.keys()
    assert {k for k, _ in view.items()} == set(plain)
    assert {**view} == plain and dict(view) == plain
    assert view == plain and plain == view and not view != plain and not plain != view
    for key, value in plain.items():
        assert key in view and view[key] == value and value == view[key] and view.get(key) == value
        if depth:
            assert_reads_match(view[key], value, depth - 1)
    for key, got in view.items():
        assert got == plain[key] and got == view[key]
    for key in MISSES + HITS_AS_OTHER_TYPES:
        assert (key in view) == (key in plain), key
        assert view.get(key, "missing") == plain.get(key, "missing"), key
        try:
            expected = plain[key]
        except KeyError:
            with pytest.raises(KeyError):
                view[key]
        else:
            assert view[key] == expected
    with pytest.raises(TypeError):
        view.get([0, 0])
    # a dict that differs in one entry, or has one more or one less, is unequal either way round
    first = next(iter(plain))
    for other in ({k: v for k, v in plain.items() if k != first}, {**plain, "extra": 1},
                  {**plain, first: {}}):
        assert view != other and other != view and not view == other and not other == view


def checked(h):
    """What the checks make of h, as repr and residual.hex() strings: ``check_hopf_axioms``,
    ``_tensor_fold`` of h against itself and the cell fold it stands for, and ``group_part`` in
    both modes, or the ValueError it raises."""
    def shown(c):
        return repr(c), c.residual.hex()

    b = h.backend
    got = [shown(c) for side in hopf.check_hopf_axioms(h) for c in side]
    got += [shown(hopf._tensor_fold("self", b, h, h)), shown(hopf.fold_checks("self", b, hopf._tensor_cells(h, h)))]
    for mode in ("closed_form", "brute_force"):
        try:
            part = hopf.group_part(h, mode)
        except ValueError as e:
            got.append(str(e))
        else:
            got.append((repr(part), part.worst_residual.hex()))
    return got


@settings(max_examples=80, derandomize=True, deadline=None)
@given(g=groups(), build=st.sampled_from([function_algebra, group_algebra]),
       kind=st.sampled_from(sorted(BACKENDS)), data=st.data())
def test_law_views_read_as_the_dicts_they_replace(g, build, kind, data):
    b = BACKENDS[kind]()
    view, plain = derived(data.draw, build, g, b)
    assert not isinstance(plain.mul, hopf._LawView) and not isinstance(plain.comul, hopf._LawView)
    for name in ("mul", "comul"):
        assert_reads_match(getattr(view, name), getattr(plain, name))
    # a product reads as the same diagonal, or as none, whether its cells are a view's or a dict's:
    # a law product of more than one point has cells off the diagonal
    assert view.diagonal == plain.diagonal
    if isinstance(view.mul, hopf._Products) and view.dim > 1:
        assert view.diagonal is None
    assert view == plain and plain == view
    assert checked(view) == checked(plain)
    assert dual_hopf(dual_hopf(view)) == view
    # replace reads the diagonal again, from whatever mul it is given
    other = make_group(GroupSpec.finite_abelian([view.dim]))
    law_product = dataclasses.replace(view, mul=group_algebra(other, b).mul)
    assert law_product.diagonal == (None if view.dim > 1 else {0: b.one})
    as_dict = dataclasses.replace(view, mul={k: dict(v) for k, v in view.mul.items()})
    assert as_dict.diagonal == plain.diagonal


def test_law_views_share_one_array_and_hold_no_cells(monkeypatch):
    sorts = []
    fibres = hopf._Fibres.fibres
    monkeypatch.setattr(hopf._Fibres, "fibres", lambda self: sorts.append(self) or fibres(self))
    g = make_group(GroupSpec.symmetric(4))
    b = make_backend("cyclotomic", order=1)
    f, h = function_algebra(g, b), group_algebra(g, b)
    law = hopf._cayley_table(g)[1]
    assert f.comul.law is law and h.mul.law is law and h.diagonal is None
    assert dual_hopf(f).mul.law is law and dual_hopf(h).comul.law is law
    assert not law.flags.writeable
    assert hopf._monomial_law(h) is law and hopf._monomial_law(f, coproduct=True) is law
    assert hopf._coproduct_terms(f.comul) == sum(map(len, dict_algebra(function_algebra, g, b).comul.values()))
    # the axioms of both algebras and their duals, as hopf-axioms runs them, list no fibre, so no
    # view sorts its cells by point: each law is read as its array, and each cell from it
    for k in (f, h):
        assert all(c.passed for side in hopf.check_hopf_axioms(k) for c in side)
    assert dual_hopf(h) == f
    assert sorts == [] and "fibres" not in f.comul._memo
    # views of one law compare their coefficients too, as the dicts do
    two = b.from_int(2)
    for view in (h.mul, f.comul):
        other = type(view)(law, two)
        assert view != other and dict(view.items()) != dict(other.items())
        assert view == type(view)(law.copy(), b.from_int(1))


def test_law_views_hold_no_list_of_their_cells_after_the_axiom_checks(monkeypatch):
    # every law view made while the axioms of S4's function and group algebras are checked, their
    # duals' and the algebras' own among them, holds its array and its one: no list of its cells
    views = []
    init = hopf._LawView.__init__
    monkeypatch.setattr(hopf._LawView, "__init__", lambda self, law, one: views.append(self) or init(self, law, one))
    g = make_group(GroupSpec.symmetric(4))
    for kind in sorted(BACKENDS):
        for build in (function_algebra, group_algebra):
            assert all(c.passed for side in hopf.check_hopf_axioms(build(g, BACKENDS[kind]())) for c in side)
    assert len(views) == 8
    for view in views:
        held = [getattr(view, s) for cls in type(view).__mro__ for s in getattr(cls, "__slots__", ())
                if hasattr(view, s)]
        held += [x for memo in held if isinstance(memo, dict) for x in memo.values()]
        assert not any(isinstance(x, list) for x in held), type(view)


def corrupt(h, part, picks, b):
    """h with one 0/1 edit: one cell of its law moved to another point, which leaves fibres of
    other sizes than n, or two points of its law swapped, an antipode image moved, or a unit or
    counit point moved, dropped or added."""
    n, (p, q, r) = h.dim, (x % h.dim for x in picks)
    if part == "law":
        name = "mul" if isinstance(h.mul, hopf._LawView) else "comul"
        view = getattr(h, name)
        if p == q:
            q = (p + 1) % n
        swap = np.arange(n)
        swap[[p, q]] = q, p
        law = swap[view.law]
        if r % 2:   # one cell alone
            law = view.law.copy()
            law[p, q] = (law[p, q] + 1 + r) % n
        law.flags.writeable = False
        if name == "mul":
            return dataclasses.replace(h, mul=hopf._Products(law, view.one))
        return dataclasses.replace(h, comul=hopf._Fibres(law, view.one))
    if part == "inverse":
        return dataclasses.replace(h, antipode={**h.antipode, p: {q: b.one}})
    vec = dict(getattr(h, part))
    if r % 3 == 0 and vec:
        vec.pop(next(iter(vec)))
    elif r % 3 == 1:
        vec[p] = b.one
    else:
        vec = {(k + 1) % n: x for k, x in vec.items()}
    return dataclasses.replace(h, **{part: vec})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(orders=st.sampled_from([(2, 3), (1, 4), (2, 2), (3, 2)]),
       build=st.sampled_from([function_algebra, group_algebra]), kind=st.sampled_from(sorted(BACKENDS)),
       edits=st.lists(st.tuples(st.sampled_from(["law", "inverse", "unit", "counit"]), st.sampled_from([0, 1]),
                                st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11))),
                      max_size=2))
def test_tensor_iso_array_compare_matches_the_cell_fold(orders, build, kind, edits):
    b = BACKENDS[kind]()
    g1, g2 = (make_group(GroupSpec.finite_abelian([m])) for m in orders)
    pair = [build(hopf.direct_product(g1, g2), b), tensor_hopf(build(g1, b), build(g2, b))]
    for part, side, picks in edits:
        pair[side] = corrupt(pair[side], part, picks, b)
    # the array compare gives the generic fold's verdict, residual and witness
    got = hopf._tensor_fold("side", b, *pair)
    assert repr(got) == repr(hopf.fold_checks("side", b, hopf._tensor_cells(*pair)))
    if not edits:
        assert got == hopf.CheckResult("side", True, 0.0, "")


def test_tensor_iso_folds_every_cell_of_a_tensor_it_cannot_read():
    b = make_backend("cyclotomic", order=6)
    z2, z3 = make_group(GroupSpec.finite_abelian([2])), make_group(GroupSpec.finite_abelian([3]))
    p, t = group_algebra(hopf.direct_product(z2, z3), b), tensor_hopf(group_algebra(z2, b), group_algebra(z3, b))
    two = b.from_int(2)
    for bad in (dataclasses.replace(t, unit={0: two}),                       # a coefficient that is not one
                dataclasses.replace(p, unit={0: two}),
                dataclasses.replace(t, mul={k: dict(v) for k, v in t.mul.items()}),   # a dict against a view
                dataclasses.replace(t, antipode={**t.antipode, "x": {0: b.one}})):   # a dict that differs
        assert hopf._tensor_fold("", b, p, bad) == hopf.fold_checks("", b, hopf._tensor_cells(p, bad))
    # equal dicts whose coefficients are not all one: an equal cell of them need not add 0.0
    p2, t2 = (dataclasses.replace(x, antipode={0: {0: two}}) for x in (p, t))
    assert hopf._tensor_fold("", b, p2, t2) == hopf.fold_checks("", b, hopf._tensor_cells(p2, t2))


def test_tensor_iso_read_takes_the_first_differing_cell_of_either_law():
    # hand-made algebras whose product and coproduct are both law views: the fold's first differing
    # cell is comul 0, ahead of every product cell of rows past 0
    b = make_backend("cyclotomic", order=1)
    g = make_group(GroupSpec.finite_abelian([4]))
    h = dataclasses.replace(group_algebra(g, b), comul=function_algebra(g, b).comul)
    law = hopf._cayley_table(g)[1]
    swapped = np.where(law == 0, 1, np.where(law == 1, 0, law))
    # the product differs from row 2 on, the coproduct at the points 0 and 1
    k = dataclasses.replace(h, mul=hopf._Products(np.where(np.arange(4)[:, None] >= 2, swapped, law), b.one),
                            comul=hopf._Fibres(swapped, b.one))
    got = hopf._tensor_fold("", b, h, k)
    assert got == hopf.fold_checks("", b, hopf._tensor_cells(h, k))
    assert got.detail == "comul 0"


def count_group_work(monkeypatch, tmp_path, config, runs=1):
    """(group.mul calls, laws built per group label) of each run of config through cli.main; a
    direct product's mul count includes its factors'."""
    calls, laws = [0], Counter()
    for cls in (FiniteAbelianGroup, SymmetricGroup, DirectProductGroup):
        def counted(self, x, y, _mul=cls.mul):
            calls[0] += 1
            return _mul(self, x, y)
        monkeypatch.setattr(cls, "mul", counted)
    for cls in (Group, FiniteAbelianGroup, SymmetricGroup):
        def built(self, _law=cls.law):
            laws[self.label] += 1
            return _law(self)
        monkeypatch.setattr(cls, "law", built)
    counts = []
    for run in range(runs):
        calls[0] = 0
        laws.clear()
        assert main(["--config", str(config), "--out", str(tmp_path / f"out{run}")]) == 0
        counts.append((calls[0], dict(laws)))
    return counts


@pytest.mark.parametrize("config, products, tables", [
    # S3: one table, by permutation composition, serves the function algebra, the group algebra and
    # their duals
    ("hopf_axioms_s3.json", 0, {"S3": 1}),
    # Z2 and Z3 by index arithmetic; their product by its own mul loop, whose 36 products each make
    # one product in each factor
    ("tensor_iso_z2_z3.json", 3 * 36, {"Z2": 1, "Z3": 1, "(Z2)x(Z3)": 1}),
], ids=["hopf_axioms_s3.json-0", "tensor_iso_z2_z3.json-108"])
def test_each_group_builds_one_cayley_table_per_run(monkeypatch, tmp_path, capsys, config, products, tables):
    path = Path(__file__).parents[1] / "configs" / config
    # run twice in one process: no table outlives its group, so each run makes its own
    assert count_group_work(monkeypatch, tmp_path, path, runs=2) == [(products, tables)] * 2
    capsys.readouterr()
    assert json.loads((tmp_path / "out0" / "report.json").read_text())["allPass"]


X, Y = ((1,), (0,)), ((0,), (1,))   # elements 3 and 1 of Z2xZ3, whose product is element 4, ((1,), (1,))


def corrupted(left, right):
    """The direct product of left and right, with the one product X * Y moved to element 5."""
    prod = DirectProductGroup(left, right)
    mul = prod.mul
    prod.mul = lambda s, t: ((1,), (2,)) if (s, t) == (X, Y) else mul(s, t)
    return prod


def test_tensor_iso_reads_the_product_groups_own_law(monkeypatch):
    # one corrupted product of the product group: its law is its own mul loop, not the factors'
    # laws put together, so each side fails at the first cell the corruption reaches
    b = make_backend("cyclotomic", order=1)
    z2, z3 = (make_group(GroupSpec.finite_abelian([n])) for n in (2, 3))
    assert all(c.passed for c in hopf.product_iso_check(z2, z3, b))
    monkeypatch.setattr(hopf, "direct_product", corrupted)
    got = hopf.product_iso_check(z2, z3, b)
    # the group algebra's product differs at cell (3, 1); the function algebra's coproduct at the
    # fibres of 4 and 5, and its product, pointwise, not at all
    assert [(c.name, c.passed, c.detail) for c in got] == [
        ("convolution-side", False, "mul (3,1)"), ("function-side", False, "comul 4")]


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_fibres_of_a_law_that_is_no_group_law_read_as_their_dict(kind):
    # on the corrupted product the fibre of 4 has 5 cells and that of 5 has 7: each view fibre
    # lists, counts and finds the cells the dict built by the loop holds, and no other
    b = BACKENDS[kind]()
    prod = corrupted(*(make_group(GroupSpec.finite_abelian([n])) for n in (2, 3)))
    view, plain = function_algebra(prod, b).comul, dict_algebra(function_algebra, prod, b).comul
    assert [len(plain[k]) for k in range(6)] == [6, 6, 6, 6, 5, 7]
    for k, fibre in plain.items():
        assert dict(view[k]) == fibre and len(view[k]) == len(fibre)
        assert all(view[k][ij] == one for ij, one in fibre.items())
        for ij in set(np.ndindex(6, 6)) - fibre.keys():
            assert ij not in view[k] and view[k].get(ij) is None
    assert view == plain and plain == view
    assert_reads_match(view, plain)
    assert_reads_match(dual_hopf(dual_hopf(function_algebra(prod, b))).comul, plain)
