"""Finite-dimensional Hopf structure tensors over pluggable scalar backends.

Two constructions anchor everything: the algebra of scalar functions on a
finite group (pointwise product, comultiplication along the group law) and its
dual, the group convolution algebra.  Dualization transposes the five
structure tensors; on finite abelian groups the character table gives a
concrete isomorphism whose round trip is asserted as literal matrix equality.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .groups import Group, GroupSpec, direct_product, make_group, require, walk
from .reports import CheckResult, as_int, fail, fold
from .scalars import times

# tensor-iso grows as dim^2; through duality-lab, one process each (Python 3.11,
# 2-core x86-64 host), exact backend: Z30xZ40 (dim 1200) 19.1 s at 1245 MB peak,
# Z35xZ40 (1400) 31.7 s at 1682 MB, Z30xZ50 (1500) 37.2 s at 1891 MB, and float
# 39.0 s at 1960 MB, so dimensions up to 1500 finish in a minute and 2 GB.  With the
# laws stored as int arrays and compared as arrays (_tensor_fold), Z30xZ50 took
# 2.68-2.75 s at 85 MB, against 15.3 s at 1891 MB before them on the same host, two
# runs each: memory no longer binds, and the cap is to be re-sized from recorded runs
TENSOR_DIM_CAP = 1500
# the exact cycle reads its dense folds as root exponents (_exponents), a perturbed map too: only the
# terms that touch an entry that is not a root go through the backend.  Memory binds, through the
# n^3 intp arrays of the hom fold, the gram and the composite.  Through duality-lab, one process
# each (Python 3.11, 2-core x86-64 host), two to four runs each, perturb [1, 2] and unperturbed:
# exact Z127 0.73-0.85 and 0.50-0.56 s at 105-108 MB, Z251 (the largest phi(n) the cap admits)
# 7.89-8.17 and 5.26-5.35 s at 571-586 MB, Z256 7.38-7.52 and 4.91-5.03 s at 587-596 MB; float
# Z127 0.31-0.40 and 0.26-0.34 s at 46-49 MB, Z251 1.50-1.54 and 1.04-1.06 s at 94-103 MB, Z256
# 1.72-1.83 and 1.15-1.25 s at 96-106 MB.  So orders up to 256 finish in ten seconds and 600 MB.
# No larger order was run
DUALITY_ORDER_CAP = 256
# hopf-axioms on the rationals (every structure constant is 0 or 1): the law side's associativity is
# decided on an int array, the diagonal side's on its n triples (i, i, i), and the bialgebra fold
# leaves out its two product blocks.  What grows is time, through that associativity read: n rows of
# two (n, n) gathers (_law_associativity), n^3 cells in all, about nine tenths of an S6 run under
# cProfile; memory is its three (n, n) buffers.  Recorded runs: through duality-lab, one process
# each (Python 3.11, 2-core x86-64 host), algebra both, exact and float: S6 (dim 720) 2.45-2.83 s at
# 326 MB (6.3-6.5 s before those reads), Z720 and Z719 2.57-2.66 s at 323 MB, Z1000 and Z997
# 4.96-5.37 s at 558-561 MB, and Z1200 and Z1193, the largest prime under the cap, 7.83-8.07 s at
# 787-795 MB; so dimensions up to 1200 finish in ten seconds and 1 GB.  With the laws stored as int
# arrays (_LawView), one Cayley table per group and the associativity rows formed in reused buffers,
# exact S6 took 1.18-1.20 s at 49 MB, against 2.33-2.37 s at 326 MB before them on the same host,
# two runs each.  With S6's law composed on arrays (SymmetricGroup.law) in place of 518,400
# group.mul calls, exact S6 took 1.88-2.28 s at 49.4-49.5 MB, against 2.37-3.32 s at 49.4-49.5 MB
# before it, four runs each on a loaded host.  With no list of a law view's n^2 cells kept (_LawView),
# exact S6 took 1.26-1.51 s at 50.3-50.4 MB and Z1193 7.24-7.38 s at 79.4 MB, against 1.34-1.37 s at
# 52.2-52.3 MB and 7.33-7.36 s at 90.7 MB before it, two runs each; the cap is to be re-sized
HOPF_AXIOMS_DIM_CAP = 1200
# group-part caps, the one size rule of either mode; runs through duality-lab, one process each
# (Python 3.11, 2-core x86-64 host).  The function algebra costs about characters x order^2 per
# mode run on the float backend, brute force as much as the closed form; the exact backend reads
# root exponents (_multiplicative_functions, _grouplike_read, _closure_read), so float binds:
# closedForm Z199 28.5 s float and 0.49 s exact, Z200 29.2 s and 0.45 s, under 50 MB; mode both,
# two runs, Z157 25.2 s float and 0.49 s exact, Z158 (the largest abelian order the cap admits for
# both) 25.7 s and 0.46 s; S6 (2 characters) 5.2 s float and 1.0 s exact at 120-230 MB.  At the
# old cap of 150, closedForm Z149 10.9 s float and 0.24 s exact (26.3 s before those reads), Z150
# 11.4 s and 0.29 s (15.5 s).  So runs x work up to that of one run on an abelian group of order
# 200 finishes in half a minute
GROUP_PART_FUNCTION_ORDER_CAP = 200
# group-part on the group algebra, in any mode, does n^2 array work: the law, its bincount
# (_grouplike_basis) and the (n, n) gather of the closure read (_closure_read), with 63 MB peak at
# Z1400 in the last runs below, so neither time nor memory binds near the cap.  Exact runs are on
# the rationals, as every structure constant and point mass is 0 or 1.  Recorded runs, while the
# product cells were dicts: Z1399 16.1 s exact at 814 MB peak (53.5 s with the order-1399 backend it
# used to build) and 14.5 s float at 829 MB; Z1400 13.1 s float; mode both, Z1400 22.4 s exact and
# 20.6 s float at 815 MB; and with the cap lifted Z1499 16.7 s exact at 912 MB (57.3 s).  With
# closure read off the law (_closure_read), closedForm Z1399 took 2.95 s exact and 2.97 s float at
# 814 MB, against 6.45 and 6.53 s before it on the same host, and mode both Z1400 3.55 s exact
# (10.47 s) at 815 MB; so orders up to 1400 finish in a minute and 1 GB.  With the law stored as an
# int array (_LawView) and read at once, exact closedForm Z1399 took 1.18-1.19 s at 63 MB and mode
# both Z1400 1.19-1.21 s at 63 MB, against 2.67-2.69 s at 814 MB and 3.19-3.21 s at 815 MB before it
# on the same host, two runs each: memory no longer binds.  With the law computed by index
# arithmetic (FiniteAbelianGroup.law) in place of n^2 group.mul calls, exact closedForm Z1399 took
# 0.27-0.37 s at 63.1-63.2 MB and mode both Z1400 0.39-0.45 s at 63.5-63.6 MB, against 2.24-4.07 s
# at 63.0-63.1 MB and 2.14-3.86 s at 63.4 MB before it, four runs each on a loaded host; the cap is
# to be re-sized by time
GROUP_PART_GROUP_ORDER_CAP = 1400

# Vec maps basis index -> scalar; PairVec maps (index, index) -> scalar.


@dataclass(frozen=True)
class HopfAlgebra:
    """Sparse structure tensors of a finite-dimensional Hopf algebra.

    mul[(i, j)] is the product of basis elements i and j as a Vec; comul[i]
    is the coproduct of basis element i as a PairVec; unit and counit are a
    Vec and a coefficient row; antipode[i] is the image of basis element i.
    Missing entries mean zero.  The tensors are the whole algebra: nothing
    else records which construction built it.  Each tensor is a dict, or,
    where it is a monomial law, as the group algebra's product and the
    function algebra's coproduct are (and their duals' and tensor products'),
    a read-only view of the law's (n, n) int array that gets and compares
    as the dict it stands for and lists its entries in one fixed order, which
    no output depends on (``_LawView``).

    ``rows`` indexes a dict product by its left factor, rows[i][j] =
    mul[(i, j)] for the nonzero cells, built with the algebra so products
    may walk one row instead of probing every index pair; for a law view it
    is ``{}``, as each cell is read from the view's array.

    ``==`` is literal structure equality: the same dim, backend and five
    tensors under ``==``.  Labels are for display and take no part, so an
    algebra equals the dual of its dual, and the group algebra equals the
    dual of the function algebra; a check of one then stands for the same
    check of the other.  ``hopf_equal`` compares under the float tolerance
    instead.  Dict ``==`` ignores key order, which only sets the order in
    which floats are summed: the algebras built here carry only 0 and 1,
    and a linear map such as ``fourier``'s is compared with its own
    transpose, which ``_transpose`` lists in the map's key order when the
    map is symmetric and each column lists its rows in column order.
    """

    dim: int
    labels: tuple[str, ...] = field(compare=False)
    backend: object
    mul: Mapping
    unit: Mapping
    comul: Mapping
    counit: Mapping
    antipode: Mapping
    rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = {}
        if not isinstance(self.mul, _Products):
            for (i, j), cell in self.mul.items():
                if cell:
                    rows.setdefault(i, {})[j] = cell
        object.__setattr__(self, "rows", rows)

    def basis(self, i: int):
        return {i: self.backend.one}


def _cayley_table(group: Group) -> tuple[list, np.ndarray, list[int], int]:
    """The elements of a finite group and its law on their indices.

    Returns (elements, law, inverse, identity) with law[i, j] the index of
    elements[i] * elements[j], a read-only (n, n) intp array, and inverse[i]
    the index of elements[i]^-1.  The law is the group's own (``Group.law``):
    index arithmetic on a finite abelian group, permutation composition on a
    symmetric group, one ``mul`` per cell on any other.  The table is kept on
    the group object, so the algebras built on one group share it, and it goes
    with the group.
    """
    kept = vars(group).get("_cayley_table")
    if kept is not None:
        return kept
    elems = list(require(group).elements())
    index = {x: i for i, x in enumerate(elems)}
    law = group.law()
    law.flags.writeable = False
    table = elems, law, [index[group.inv(x)] for x in elems], index[group.identity]
    group._cayley_table = table
    return table


def function_algebra(group: Group, backend) -> HopfAlgebra:
    """Scalar functions on a finite group: the basis is the indicator family.

    Product is pointwise, the coproduct of an indicator sums the indicator
    pairs over factorizations of its point, the counit evaluates at the
    identity, and the antipode precomposes with inversion.  The coproduct
    is the group's law (``_Fibres``).
    """
    elems, law, inverse, e = _cayley_table(group)
    n = len(elems)
    one = backend.one
    return HopfAlgebra(
        dim=n,
        labels=tuple("1_" + group.format(x) for x in elems),
        backend=backend,
        mul={(i, i): {i: one} for i in range(n)},
        unit={i: one for i in range(n)},
        comul=_Fibres(law, one),
        counit={e: one},
        antipode={i: {inverse[i]: one} for i in range(n)},
    )


def group_algebra(group: Group, backend) -> HopfAlgebra:
    """The convolution algebra spanned by group elements (point masses).

    Product follows the group law (``_Products``), every basis vector is
    grouplike, the counit is identically one, and the antipode inverts the
    point.
    """
    elems, law, inverse, e = _cayley_table(group)
    n = len(elems)
    one = backend.one
    return HopfAlgebra(
        dim=n,
        labels=tuple("d_" + group.format(x) for x in elems),
        backend=backend,
        mul=_Products(law, one),
        unit={e: one},
        comul={i: {(i, i): one} for i in range(n)},
        counit={i: one for i in range(n)},
        antipode={i: {inverse[i]: one} for i in range(n)},
    )


# ---------------------------------------------------------------------------
# monomial tensors stored as their law


def _index(key, n: int):
    """The int in range(n) that key finds as a dict key, or None.  A key finds the int i in a dict
    exactly when it equals i, and a number equal to i has i's hash, which on range(n) is i itself:
    so True, 1.0 and numpy ints find 1, and an unhashable key raises TypeError, as in a dict."""
    i = hash(key)
    return i if 0 <= i < n and key == i else None


class _LawView(Mapping):
    """A monomial tensor stored as its law: law[i, j] = k on every pair (i, j) of range(n)^2, each
    coefficient ``one``, read as the dict of dicts it stands for.  law is a read-only (n, n) intp
    array of points in range(n), such as a group's law or a tensor product of such.  A view holds
    its array and ``one`` (and a ``_Fibres`` its memoised sort) and no list of its cells: each cell
    is read from the array when it is asked for.  Its items, keys, values and ``in`` are
    ``Mapping``'s, from its ``__iter__`` and ``__getitem__``.

    A view lists in one fixed order: ``_Products`` row-major, ``_Fibres`` the keys 0..n-1 with
    each fibre row-major.  No output depends on it: every coefficient is ``one``; ``_apply`` adds
    at most one term per key for each input entry; ``mul_vec`` sums in the order of v and w; the
    sums of ``pair_mul`` over fibres add equal terms; every witness tag comes from a ``range``
    loop; and ``compare`` folds over a key union.  Two views of one type are equal when their laws
    and ones are, and a view equals any other Mapping as the dict it stands for, with no entry
    spelled out for a length that differs; ``transposed`` hands the same array over in the other
    role."""

    __slots__ = ("law", "one")

    def __init__(self, law: np.ndarray, one):
        self.law, self.one = law, one

    def _cell(self, key):
        """The flat cell of a pair key (i, j), or None for any other key, as in a dict lookup."""
        n = len(self.law)
        if type(key) is tuple and len(key) == 2 and type(key[0]) is int and type(key[1]) is int:
            i, j = key
            return i * n + j if 0 <= i < n and 0 <= j < n else None
        hash(key)
        if not isinstance(key, tuple) or len(key) != 2:
            return None
        i, j = _index(key[0], n), _index(key[1], n)
        return None if i is None or j is None else i * n + j

    def __eq__(self, other):
        if type(other) is type(self):
            return self.one == other.one and np.array_equal(self.law, other.law)
        if not isinstance(other, Mapping):
            return NotImplemented
        return len(self) == len(other) and all(key in self and self[key] == v for key, v in other.items())

    def __repr__(self):
        return repr(dict(self.items()))


class _Products(_LawView):
    """A product that is a monomial law: mul[(i, j)] == {law[i, j]: one}, listed row-major."""

    __slots__ = ()

    def __len__(self):
        return self.law.size

    def __iter__(self):
        return itertools.product(range(len(self.law)), repeat=2)

    def __getitem__(self, key):
        c = self._cell(key)
        if c is None:
            raise KeyError(key)
        return {self.law.item(c): self.one}

    def transposed(self) -> "_Fibres":
        return _Fibres(self.law, self.one)


class _Fibres(_LawView):
    """A coproduct that is a monomial law: comul[k] == {(i, j): one for every law[i, j] == k}, for
    k in range(n), a plain dict listed row-major and cut from ``fibres()``; a fibre may hold any
    number of cells, none included."""

    __slots__ = ("_memo",)

    def __init__(self, law: np.ndarray, one):
        super().__init__(law, one)
        self._memo = {}

    def fibres(self) -> tuple:
        """(cells, bounds): the flat cells in one stable argsort of their points, and the list
        bounds, with the fibre of k at cells[bounds[k]:bounds[k + 1]], made once."""
        if "fibres" not in self._memo:
            points = self.law.ravel()
            bounds = [0, *np.cumsum(np.bincount(points, minlength=len(self.law))).tolist()]
            self._memo["fibres"] = np.argsort(points, kind="stable"), bounds
        return self._memo["fibres"]

    def __len__(self):
        return len(self.law)

    def __iter__(self):
        return iter(range(len(self.law)))

    def __getitem__(self, key):
        k = _index(key, len(self.law))
        if k is None:
            raise KeyError(key)
        (cells, bounds), n, one = self.fibres(), len(self.law), self.one
        return {divmod(c, n): one for c in cells[bounds[k]:bounds[k + 1]].tolist()}

    def transposed(self) -> _Products:
        return _Products(self.law, self.one)


# ---------------------------------------------------------------------------
# sparse vector helpers


def _vec_add_scaled(backend, acc: dict, scalar, vec: Mapping) -> None:
    """acc += scalar * vec; a key new to acc takes its scaled entry as it is, not added to zero."""
    for k, x in vec.items():
        y = backend.mul(scalar, x)
        cur = acc.get(k)
        acc[k] = y if cur is None else backend.add(cur, y)


def mul_vec(h: HopfAlgebra, v: Mapping, w: Mapping) -> dict:
    """The product v w, walking for each i of v row i of ``h.rows`` where it exists and is shorter
    than w, and otherwise w, each cell read as ``h.mul.get((i, j))``: a law view has no rows, and
    its cells are read from its array."""
    b = h.backend
    acc: dict = {}
    for i, a in v.items():
        row = h.rows.get(i)
        if row is not None and len(row) < len(w):
            # row order instead of w order gives the same sums, bit for bit,
            # while distinct cells of one row share no basis vector, as in
            # every algebra built here
            for j, cell in row.items():
                c = w.get(j)
                if c is not None:
                    _vec_add_scaled(b, acc, b.mul(a, c), cell)
        else:
            for j, c in w.items():
                cell = h.mul.get((i, j))
                if cell:
                    _vec_add_scaled(b, acc, b.mul(a, c), cell)
    return acc


def _apply(backend, columns: Mapping, v: Mapping) -> dict:
    """The linear map whose column i is columns[i] (missing: zero), applied to v."""
    acc: dict = {}
    for i, a in v.items():
        _vec_add_scaled(backend, acc, a, columns.get(i, {}))
    return acc


def _transpose(columns: Mapping) -> Mapping:
    """Swap the roles of column keys and row keys in a sparse map; a law view hands its array over
    in the other role (``_LawView``)."""
    if isinstance(columns, _LawView):
        return columns.transposed()
    rows: dict = {}
    for k, col in columns.items():
        for r, c in col.items():
            rows.setdefault(r, {})[k] = c
    return rows


def _kron(backend, u: Mapping, v: Mapping, key=lambda p, q: (p, q)) -> dict:
    """Outer product of two sparse vectors; entry (p, q) lands at key(p, q)."""
    return {key(p, q): backend.mul(x, y) for p, x in u.items() for q, y in v.items()}


def pair_mul(h: HopfAlgebra, p: Mapping, q: Mapping) -> dict:
    """Componentwise product in the tensor square."""
    b = h.backend
    acc: dict = {}
    for (a1, a2), x in p.items():
        for (c1, c2), y in q.items():
            left, right = h.mul.get((a1, c1)), h.mul.get((a2, c2))
            if left and right:
                xy = b.mul(x, y)
                for u, s in left.items():
                    xys = b.mul(xy, s)
                    for v, t in right.items():
                        acc[(u, v)] = b.add(acc.get((u, v), b.zero), b.mul(xys, t))
    return acc


def compare(backend, u: Mapping, v: Mapping) -> tuple[bool, float]:
    """Entrywise equality of two sparse vectors and the worst residual.

    Walks the union of keys once.  The residual is taken over every key even
    after a mismatch, because float residuals are reported for passing checks.
    """
    zero = backend.zero
    ok = True
    worst = 0.0
    for k in u.keys() | v.keys():
        a, c = u.get(k, zero), v.get(k, zero)
        worst = max(worst, backend.residual(a, c))
        ok = ok and backend.eq(a, c)
    return ok, worst


def fold_checks(name: str, backend, pairs: Iterable) -> CheckResult:
    """One named check over (tag, lhs, rhs) comparisons, each ``compare``d and folded by
    ``reports.fold``; the first failing tag is the witness."""
    return fold(name, ((*compare(backend, lhs, rhs), tag) for tag, lhs, rhs in pairs))


def _contains(backend, vectors, v: Mapping) -> bool:
    """Whether v equals a member of vectors: a search, not a check, so it stops at
    the first unequal entry and computes no residual."""
    zero = backend.zero
    return any(all(backend.eq(v.get(k, zero), u.get(k, zero)) for k in v.keys() | u.keys()) for u in vectors)


def _closed_under_product(h: HopfAlgebra, vectors: list) -> bool:
    """Whether every product of two of vectors equals one of them, each sought among all."""
    return all(_contains(h.backend, vectors, mul_vec(h, v, w)) for v in vectors for w in vectors)


def _all_of(name: str, checks: list[CheckResult]) -> CheckResult:
    """A stage that passes when every check does, naming the ones that failed."""
    return CheckResult(
        name=name,
        passed=all(c.passed for c in checks),
        residual=max(c.residual for c in checks),
        detail="; ".join(c.name for c in checks if not c.passed),
    )


def _tensor_cells(h1: HopfAlgebra, h2: HopfAlgebra):
    """(tag, h1 cell, h2 cell) for every cell of the five tensors of two algebras of one dimension."""
    yield "unit", h1.unit, h2.unit
    yield "counit", h1.counit, h2.counit
    for i in range(h1.dim):
        for j in range(h1.dim):
            yield f"mul ({i},{j})", h1.mul.get((i, j), {}), h2.mul.get((i, j), {})
        yield f"comul {i}", h1.comul.get(i, {}), h2.comul.get(i, {})
        yield f"antipode {i}", h1.antipode.get(i, {}), h2.antipode.get(i, {})


def _all_one(t, one, vector: bool) -> bool:
    """Whether every coefficient of a tensor is == one: a law view's ``one``, else each entry of the
    vector (unit, counit) or of each of its cells."""
    if isinstance(t, _LawView):
        return t.one == one
    return all(x == one for v in ((t,) if vector else t.values()) for x in v.values())


def _tensor_fold(name: str, backend, h1: HopfAlgebra, h2: HopfAlgebra) -> CheckResult:
    """fold_checks over ``_tensor_cells(h1, h2)``.  When each of the five tensors is == on both
    sides (two law views compare their arrays) and every coefficient is the backend's one, every
    cell compares one with one and adds 0.0, so the fold passes with no witness, and no cell is
    spelled out."""
    one = backend.one
    if all(getattr(h1, t) == getattr(h2, t) and _all_one(getattr(h1, t), one, t in ("unit", "counit"))
           for t in ("unit", "counit", "mul", "comul", "antipode")):
        return CheckResult(name=name, passed=True, residual=0.0, detail="")
    return fold_checks(name, backend, _tensor_cells(h1, h2))


def hopf_equal(h1: HopfAlgebra, h2: HopfAlgebra) -> tuple[bool, float]:
    """Tensor-by-tensor equality under h1's backend; returns (equal, residual)."""
    if h1.dim != h2.dim:
        return False, float("inf")
    c = _tensor_fold("", h1.backend, h1, h2)
    return c.passed, c.residual


def dual_hopf(h: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on the dual basis: transpose all five tensors.

    Multiplication of the dual is the transpose of the coproduct, the
    coproduct of the dual is the transpose of multiplication, unit and counit
    swap roles, and the antipode transposes.  Applying this twice returns
    literally the same tensors.  A law view is handed over in the other role,
    on the same array with no copy: the group algebra's product becomes the
    dual's coproduct, and the function algebra's coproduct the dual's
    product, each listed in its role's fixed order (``_LawView``).
    """
    return HopfAlgebra(
        dim=h.dim,
        labels=tuple(lbl + "*" for lbl in h.labels),
        backend=h.backend,
        mul=_transpose(h.comul),
        unit=dict(h.counit),
        comul=_transpose(h.mul),
        counit=dict(h.unit),
        antipode=_transpose(h.antipode),
    )


# ---------------------------------------------------------------------------
# axiom checking


def _monomial_law(h: HopfAlgebra, coproduct: bool = False):
    """The map from pairs to points that h's product (or coproduct) spells out, as an (n, n) intp
    array law[i, j] = k; None unless each pair (i, j) of range(n)^2 occurs exactly once and every
    i, j, k is an int in range(n) whose coefficient is literally == one.

    The product cell mul[(i, j)] = {k: one} and the coproduct term comul[k] = {(i, j): one} spell
    the same entry: the product of a group algebra and the coproduct of a function algebra are
    the group law.  A law view (``_Products``, ``_Fibres``) in that role gives its array at once;
    any other tensor is read in place, in one pass, once its count of cells (product) or terms
    (coproduct) is dim^2, which a law needs: a diagonal tensor has dim of them.
    """
    one, dim = h.backend.one, h.dim
    tensor = h.comul if coproduct else h.mul
    if isinstance(tensor, _Fibres if coproduct else _Products):
        return tensor.law if tensor.one == one and len(tensor.law) == dim else None
    if (_coproduct_terms(tensor) if coproduct else len(tensor)) != dim * dim:
        return None
    if coproduct:
        entries = ((ij, k, x) for k, cell in tensor.items() for ij, x in cell.items())
    else:
        entries = ((ij, k, x) for ij, cell in tensor.items() for k, x in cell.items())
    law = [[-1] * dim for _ in range(dim)]
    count = 0
    for (i, j), k, x in entries:
        # a negative index would reach a row or entry from the end, so the range is checked here
        if (type(i) is not int or type(j) is not int or type(k) is not int or not x == one
                or not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim) or law[i][j] != -1):
            return None
        law[i][j] = k
        count += 1
    return np.array(law, dtype=np.intp).reshape(dim, dim) if count == dim * dim else None


def _permutation(h: HopfAlgebra) -> list[int] | None:
    """The permutation p that h's antipode spells out, antipode[i] == {p[i]: one} for i in range(n),
    read in ``_monomial_law``'s manner; None unless the keys are the ints of range(n), each column
    holds one int of range(n) whose coefficient is literally == one, and p is a bijection.  The
    antipodes of the group and function algebras, and their duals', are the inverse map."""
    one, n = h.backend.one, h.dim
    if len(h.antipode) != n:
        return None
    p = [-1] * n
    for i, col in h.antipode.items():
        if type(i) is not int or not 0 <= i < n or p[i] != -1 or len(col) != 1:
            return None
        (k, x), = col.items()
        if type(k) is not int or not 0 <= k < n or not x == one:
            return None
        p[i] = k
    return p if len(set(p)) == n else None


def _diagonal_product(h: HopfAlgebra):
    """The dict d with mul[(m, m)] == {m: d[m]} for every cell and no other cell, as a pointwise
    product spells out; None for any other product.  Read literally, not under the tolerance:
    a product is then one multiplication per shared index, as ``mul_vec`` would run it."""
    d = {}
    for (i, j), cell in h.mul.items():
        if i != j or len(cell) != 1 or i not in cell:
            return None
        d[i] = cell[i]
    return d


def _diagonal_coproduct(h: HopfAlgebra) -> bool:
    """Whether comul[i] == {(i, i): one} for every i of range(dim), the coproduct of a group algebra,
    which makes every basis vector grouplike.  Read literally, as ``_diagonal_product`` is."""
    one = h.backend.one
    return all(h.comul.get(i) == {(i, i): one} for i in range(h.dim))


def _law_associativity(b, law):
    """The associativity fold's first failing triple of a monomial law (an (n, n) int array), as
    (tag, lhs, rhs); none when law[law[i]] == law[i][law] holds row by row.

    Each product of the fold is one on one basis vector, so a triple either agrees (residual
    0.0) or compares one with zero on two keys (residual(one, zero)); folding the first failing
    triple in (i, j, k) order gives the full fold's verdict, residual and witness.  The rows are
    formed in three buffers made once: an (n, n) temporary per row is a fresh allocation that the
    allocator maps and unmaps each time, which took 1.9 s against 0.75 s for S6's 720 rows on a
    2-core x86-64 host.  Every entry of a law is in range(n), so ``take`` clips nothing.
    """
    dim = len(law)
    lhs, rhs, differs = np.empty_like(law), np.empty_like(law), np.empty(law.shape, dtype=bool)
    for i in range(dim):
        np.take(law, law[i], axis=0, out=lhs, mode="clip")   # law[law[i][j]][k] at (j, k)
        np.take(law[i], law, out=rhs, mode="clip")           # law[i][law[j][k]]
        if np.not_equal(lhs, rhs, out=differs).any():
            j, k = divmod(int(np.flatnonzero(differs)[0]), dim)
            yield f"({i},{j},{k})", {int(law[law[i, j], k]): b.one}, {int(law[i, law[j, k]]): b.one}
            return


def _product_reads(h: HopfAlgebra) -> tuple:
    """h's product read once for the axiom folds: (``_monomial_law``, ``_diagonal_product``), the
    diagonal read only when the law does not read; each None when it does not read."""
    law = _monomial_law(h)
    return law, None if law is not None else _diagonal_product(h)


def _algebra_axioms(h: HopfAlgebra, reads: tuple) -> tuple[CheckResult, CheckResult]:
    """Associativity and unit of h on basis elements; reads is ``_product_reads(h)``.

    When mul reads as a law (``_monomial_law``), as on the group algebra and the function
    algebra's dual, associativity is decided on the law as an int array, with the verdict,
    residual and witness of the fold.  When mul is diagonal (``_diagonal_product``), as on the
    function algebra and the group algebra's dual, only the triples (i, i, i) have two nonempty
    sides: each is formed with the fold's ``mul_vec`` calls, and every other triple would compare
    two empty vectors (a pass, residual 0.0), so the fold is the full one's.  The unit fold then
    multiplies basis(i) by entry i of the unit alone, the only entry whose product is not empty.
    Any other product is folded on every triple (i, j, k).
    """
    b, dim = h.backend, h.dim
    law, diagonal = reads

    def pairs_assoc():
        if law is not None:
            yield from _law_associativity(b, law)
            return
        if diagonal is not None:
            for i in range(dim):
                cell = h.mul.get((i, i))
                if cell:
                    yield f"({i},{i},{i})", mul_vec(h, cell, h.basis(i)), mul_vec(h, h.basis(i), cell)
            return
        for i, j, k in itertools.product(range(dim), repeat=3):
            lhs = mul_vec(h, h.mul.get((i, j), {}), h.basis(k))
            yield f"({i},{j},{k})", lhs, mul_vec(h, h.basis(i), h.mul.get((j, k), {}))

    def pairs_unit():
        for i in range(dim):
            unit = h.unit if diagonal is None else {i: h.unit[i]} if i in h.unit else {}
            yield f"left {i}", mul_vec(h, unit, h.basis(i)), h.basis(i)
            yield f"right {i}", mul_vec(h, h.basis(i), unit), h.basis(i)

    return fold_checks("associativity", b, pairs_assoc()), fold_checks("unit", b, pairs_unit())


def _bialgebra_axioms(h: HopfAlgebra, reads: tuple) -> tuple[CheckResult, CheckResult]:
    """The bialgebra compatibility and the antipode identities of h on basis elements; reads is
    ``_product_reads(h)``.

    When mul reads as a law, comul[i] == {(i, i): one} and the counit is one at every i, as on
    the group algebra and the function algebra's dual, the cell of Delta(ij) and of
    Delta(i) Delta(j) is (law[i][j], law[i][j]) and every factor of either side is == one, so
    every pair (i, j) of the comul x product and counit x product blocks compares one with one:
    a pass, residual 0.0.  Both blocks are then left out, which leaves the verdict, residual and
    witness of the full fold; any other h folds every pair.
    """
    b, dim, one = h.backend, h.dim, h.backend.one
    law = reads[0]
    counit = {i: {0: c} for i, c in h.counit.items()}
    uniform = law is not None and _diagonal_coproduct(h) and all(h.counit.get(i) == one for i in range(dim))
    span = range(0 if uniform else dim)

    def pairs_bialgebra():
        for i in span:
            for j in span:
                lhs = _apply(b, h.comul, h.mul.get((i, j), {}))
                rhs = pair_mul(h, h.comul.get(i, {}), h.comul.get(j, {}))
                yield f"comul x product ({i},{j})", lhs, rhs
        yield "comul of unit", _apply(b, h.comul, h.unit), _kron(b, h.unit, h.unit)
        for i in span:
            for j in span:
                lhs = _apply(b, counit, h.mul.get((i, j), {}))
                rhs = {0: b.mul(h.counit.get(i, b.zero), h.counit.get(j, b.zero))}
                yield f"counit x product ({i},{j})", lhs, rhs
        yield "counit of unit", _apply(b, counit, h.unit), {0: b.one}

    def pairs_antipode():
        for i in range(dim):
            left: dict = {}
            right: dict = {}
            for (a, c), x in h.comul.get(i, {}).items():
                _vec_add_scaled(b, left, x, mul_vec(h, h.antipode.get(a, {}), h.basis(c)))
                _vec_add_scaled(b, right, x, mul_vec(h, h.basis(a), h.antipode.get(c, {})))
            target: dict = {}
            eps = h.counit.get(i, b.zero)
            _vec_add_scaled(b, target, eps, h.unit)
            yield f"left {i}", left, target
            yield f"right {i}", right, target

    return fold_checks("bialgebra", b, pairs_bialgebra()), fold_checks("antipode", b, pairs_antipode())


def _sides(folds: tuple, co_names: tuple[str, str], shared: tuple) -> tuple[list, list]:
    """Each side's own algebra folds, the other side's renamed co_names, then the shared folds."""
    return tuple([*own, *(replace(c, name=n) for c, n in zip(other, co_names)), *shared]
                 for own, other in (folds, folds[::-1]))


def _coproduct_terms(comul: Mapping) -> int:
    """sum(map(len, comul.values())): the terms of a coproduct; a law view has one per cell."""
    return comul.law.size if isinstance(comul, _Fibres) else sum(map(len, comul.values()))


def require_axioms_dim(dim: int) -> None:
    """ConfigError at "" for a check_hopf_axioms dimension over HOPF_AXIOMS_DIM_CAP."""
    if dim > HOPF_AXIOMS_DIM_CAP:
        fail("", f"hopf axioms capped at dimension {HOPF_AXIOMS_DIM_CAP}, got {dim}")


def check_hopf_axioms(h: HopfAlgebra) -> tuple[list[CheckResult], list[CheckResult]]:
    """Verify the axioms of h and of dual_hopf(h) on basis elements.

    Returns (axioms of h, axioms of the dual), each ordered associativity,
    unit, coassociativity, counit, bialgebra, antipode.  The dual's product
    and unit are h's transposed coproduct and counit, so each side's
    coassociativity and counit are the other side's associativity and unit.
    The dual's bialgebra and antipode identities are h's transposed, so both
    lists share one fold of each, on the side with fewer coproduct entries
    (h on a tie): six folds for twelve results.  Coalgebra witnesses name dual
    basis vectors; shared ones, the basis of the side they were folded on.
    Each side's product is read once (``_product_reads``) and handed to its
    algebra fold and, on the cheaper side, to the bialgebra fold.  On a
    function or group algebra and its dual, one side's product is a law and
    the other's is diagonal, and each fold decides from its read what it
    would otherwise fold pair by pair.
    """
    require_axioms_dim(h.dim)
    sides = [(k, _product_reads(k)) for k in (h, dual_hopf(h))]
    cheaper = min(sides, key=lambda side: _coproduct_terms(side[0].comul))
    return _sides(tuple(_algebra_axioms(*side) for side in sides), ("coassociativity", "counit"),
                  _bialgebra_axioms(*cheaper))


# ---------------------------------------------------------------------------
# grouplike elements


@dataclass(frozen=True)
class GroupPartResult:
    vectors: tuple[dict, ...]
    verified: bool          # every vector passed the coproduct residual test
    closed_under_product: bool
    worst_residual: float

    @property
    def count(self) -> int:
        return len(self.vectors)


def _is_grouplike(h: HopfAlgebra, v: Mapping) -> tuple[bool, float]:
    b = h.backend
    if all(b.is_zero(x) for x in v.values()):
        return False, 0.0
    return compare(b, _apply(b, h.comul, v), _kron(b, v, v))


def _grouplike_basis(h: HopfAlgebra, table) -> list[bool] | None:
    """Whether each basis vector passes ``_is_grouplike``, read off the coproduct; table is its law
    (``_monomial_law``) as an array, or None.  On a law, Delta(delta_i) is the fibre of i, each term
    one, so delta_i is grouplike iff that fibre is exactly {(i, i)}: one bincount.  On
    comul[i] == {(i, i): one} for every i, every basis vector is.  None for any other coproduct."""
    n = h.dim
    if table is not None:
        return ((np.bincount(table.ravel(), minlength=n) == 1) & (table.diagonal() == np.arange(n))).tolist()
    return [True] * n if _diagonal_coproduct(h) else None


def _grouplike_read(h: HopfAlgebra, table, v: Mapping) -> tuple[bool, float] | None:
    """``_is_grouplike(h, v)`` read off the coproduct; None where it does not read, and
    ``_is_grouplike`` decides.  A point mass {i: one} on comul[i] == {(i, i): one} passes
    with residual(one, one).  On the cyclotomic backend and a law coproduct (table, as in
    ``_grouplike_basis``), a vector of roots is read as exponents E, -1 where v has no entry: Delta(v)
    at (p, q) is E[law[p, q]] and v (x) v is E[p] + E[q] mod N, and only the cells where the two
    differ, in presence or exponent, go through ``residual``, as every other cell adds 0.0."""
    b, one = h.backend, h.backend.one
    if len(v) == 1:
        (i, x), = v.items()
        if x == one and h.comul.get(i) == {(i, i): one}:
            return True, b.residual(one, one)
    if table is None or b.name != "cyclotomic" or not v:
        return None
    try:
        e = np.array([b._log[v[i]] if i in v else -1 for i in range(h.dim)], dtype=np.intp)
    except KeyError:   # an entry that is not a root
        return None
    if np.count_nonzero(e >= 0) != len(v):   # a key outside range(n)
        return None
    lhs = e[table]
    rhs = np.where((e[:, None] < 0) | (e < 0), -1, (e[:, None] + e) % b.n)
    diffs = np.argwhere(lhs != rhs).tolist()
    values = [*b._mono, b.zero]   # exponent -1: no entry
    return not diffs, max((b.residual(values[lhs[p, q]], values[rhs[p, q]]) for p, q in diffs), default=0.0)


def _closure_read(h: HopfAlgebra, vectors: list) -> bool | None:
    """``_closed_under_product(h, vectors)`` read off the product; None where it does not read.
    Point masses {i: one} on a law product (``_monomial_law``) multiply to {law[i][j]: one}, so
    they are closed iff law[S x S] lies in S, their points.  On the cyclotomic backend, vectors
    of n roots on the diagonal product mul[(m, m)] == {m: one} for all m multiply entrywise, the
    exponent rows adding mod N, so they are closed iff each sum of two rows is a row."""
    b, n, one = h.backend, h.dim, h.backend.one
    points = [i for v in vectors if len(v) == 1
              for i, x in v.items() if x == one and type(i) is int and 0 <= i < n]
    law = _monomial_law(h) if len(points) == len(vectors) else None
    if law is not None:
        member = np.zeros(n, dtype=bool)
        member[points] = True
        at = np.array(points, dtype=np.intp)
        return bool(member[law[at[:, None], at]].all())
    d = _diagonal_product(h) if b.name == "cyclotomic" and all(len(v) == n for v in vectors) else None
    if d is None or len(d) != n or not all(d.get(m) == one for m in range(n)):
        return None
    try:
        rows = np.array([[b._log[v[m]] for m in range(n)] for v in vectors], dtype=np.intp).reshape(-1, n)
    except KeyError:   # a missing index or an entry that is not a root
        return None
    members = {r.tobytes() for r in rows}
    return all(t.tobytes() in members for r in rows for t in (r + rows) % b.n)


def _multiplicative_functions(law: np.ndarray, e: int, backend) -> list[tuple]:
    """All functions u with u(s)u(t) = u(s*t) and u(e) = 1, as value tuples.

    Enumerates root-of-unity assignments on a greedily built generating set:
    each element not yet reached joins it and the Cayley graph is walked
    again.  The last walk's spanning tree does not depend on the assignment,
    so each candidate is extended along its edges, in the order reached, and
    kept when it survives the full multiplication-table audit.  The
    candidates are rows of root exponents mod L, the lcm of the generators'
    orders, extended and audited together on arrays, exactly on either
    backend: no candidate is kept or lost by a tolerance.  A kept row's
    values are, on the cyclotomic backend, the roots its exponents name, the
    tuples the chain of ``mul`` calls returns, and on the float backend that
    chain of ``backend.mul`` along the tree's edges, from the generators'
    ``backend.root`` values.  law is an (n, n) int array, read by the audit;
    the walks read it as lists, made once.
    """
    n, rows = len(law), law.tolist()

    def step(x, g):
        return rows[x][g]

    gens: list[int] = []
    tree = {e: None}
    for cand in range(n):
        if cand not in tree:
            gens.append(cand)
            tree = walk(e, gens, step)
    orders = [len(walk(e, [g], step)) for g in gens]
    edges = list(tree.items())[1:]
    powers = np.array(list(itertools.product(*(range(o) for o in orders))), dtype=np.intp)
    modulus = math.lcm(*orders)
    gen_exps = powers * [modulus // o for o in orders]
    column = {g: c for c, g in enumerate(gens)}
    exps = np.zeros((len(powers), n), dtype=np.intp)
    for y, (x, g) in edges:
        exps[:, y] = (exps[:, x] + gen_exps[:, column[g]]) % modulus
    for s in range(n):   # row s of the audit for every candidate still standing
        kept = (exps[:, law[s]] == (exps[:, s, None] + exps) % modulus).all(axis=1)
        exps, powers = exps[kept], powers[kept]
    # no row repeats: each generator is reached from e by its own edge, so rows differ there
    if backend.name == "cyclotomic":
        roots = [backend.root(k, modulus) for k in range(modulus)]
        return [tuple(map(roots.__getitem__, row)) for row in exps.tolist()]
    found: list[tuple] = []
    for expos in powers.tolist():
        assign = {g: backend.root(k, o) for g, k, o in zip(gens, expos, orders)}
        values: list = [None] * n
        values[e] = backend.one
        for y, (x, g) in edges:
            values[y] = backend.mul(values[x], assign[g])
        found.append(tuple(values))
    return found


def _law_characters(h: HopfAlgebra, law) -> list[dict]:
    """The multiplicative functions on law, an (n, n) int array, as vectors; the identity is the row
    equal to range(n), and ValueError says that no row is."""
    b = h.backend
    identities = np.flatnonzero((law == np.arange(h.dim)).all(axis=1))
    if not identities.size:
        raise ValueError("the coproduct's law has no identity")
    return [{i: v for i, v in enumerate(values) if not b.is_zero(v)}
            for values in _multiplicative_functions(law, int(identities[0]), b)]


def require_group_part_order(group: Group, algebra: str, runs: int) -> None:
    """ConfigError at "" for a group_part config past its cap, the one size rule of either mode;
    runs is how many modes the config asks for (1, or 2 for both).  A group algebra ("group") is
    capped at order GROUP_PART_GROUP_ORDER_CAP in any mode; its work is n^2 array reads of the law,
    and neither time nor memory binds at the cap.  A function algebra ("function") costs about
    characters x order^2 per run in either mode on the float backend, which binds (the exact backend
    reads root exponents on arrays), and runs x characters x order^2 is capped at that of one run on
    an abelian group of order GROUP_PART_FUNCTION_ORDER_CAP.
    The count of characters, |G / [G, G]|, is the order for an abelian group and 2 for a symmetric
    group of degree >= 2 (the trivial and the sign character), and the order, a bound, for any other."""
    n = group.order
    if algebra == "group":
        if n > GROUP_PART_GROUP_ORDER_CAP:
            fail("", f"group-part on the group algebra capped at order {GROUP_PART_GROUP_ORDER_CAP}, got {n}")
        return
    characters = min(n, 2) if group.kind == "symmetric" else n
    if runs * characters * n * n > GROUP_PART_FUNCTION_ORDER_CAP**3:
        fail("", f"group-part on the function algebra capped at runs x characters x order^2 = "
                 f"{GROUP_PART_FUNCTION_ORDER_CAP}^3, got {runs} x {characters} x {n}^2")


def group_part(h: HopfAlgebra, mode: str = "closed_form") -> GroupPartResult:
    """All nonzero vectors whose coproduct is their own tensor square.

    Both modes find the vectors from the coproduct alone, never the product.
    A coproduct that reads as a group law (``_monomial_law``), as a function
    algebra's does, gives the multiplicative root-of-unity functions on that
    law, enumerated on a generating set.  closed_form returns those, or, when
    there is no law and comul[i] == {(i, i): one} for every i
    (``_diagonal_coproduct``), as on a group algebra, the point masses; any
    other coproduct raises ValueError.
    brute_force keeps every basis vector that passes the residual test and
    adds each multiplicative function not already among them; it raises
    ValueError only when neither step finds a vector.  Every returned vector
    is residual-verified, and closure under the product is checked.  Where
    the tensors read exactly (``_grouplike_basis``, ``_grouplike_read``,
    ``_closure_read``) the basis scan, the residual test and the closure
    check are decided from those reads, with the verdicts and residuals of
    the generic functions, which decide wherever a read does not hold: the
    closure check then seeks every product among all the vectors
    (``_closed_under_product``).
    """
    if mode not in ("closed_form", "brute_force"):
        raise ValueError(f"unknown mode {mode!r} (expected 'closed_form' or 'brute_force')")
    b = h.backend
    table = _monomial_law(h, coproduct=True)
    vectors = [] if table is None else _law_characters(h, table)
    if mode == "brute_force":
        found = _grouplike_basis(h, table) or [_is_grouplike(h, h.basis(i))[0] for i in range(h.dim)]
        basis = [h.basis(i) for i in range(h.dim) if found[i]]
        vectors = basis + [v for v in vectors if not _contains(b, basis, v)]
        if not vectors:
            raise ValueError("brute force found no grouplike basis vector and no group law in the coproduct")
    elif table is None:
        if not _diagonal_coproduct(h):
            raise ValueError("closed_form needs a coproduct that is a group law or makes every basis vector "
                             "grouplike; use brute_force")
        vectors = [h.basis(i) for i in range(h.dim)]

    grouplike = [_grouplike_read(h, table, v) or _is_grouplike(h, v) for v in vectors]
    closed = _closure_read(h, vectors)
    return GroupPartResult(
        vectors=tuple(vectors),
        verified=all(ok for ok, _ in grouplike),
        closed_under_product=_closed_under_product(h, vectors) if closed is None else closed,
        worst_residual=max((r for _, r in grouplike), default=0.0),
    )


# ---------------------------------------------------------------------------
# characters of finite abelian groups and the Fourier transform


def dual_group(group: Group) -> Group:
    """The index group of the characters of a finite abelian group: the same orders, labelled
    with a ``^``.  Character m sends t to the product over coordinates k of the order-n_k root of
    unity raised to m_k t_k, so its index tuples m compose as the group's own elements do."""
    require(group, "finite_abelian")
    return make_group(GroupSpec.finite_abelian(group.orders, label=group.label + "^"))


def _character_table(group: Group, backend) -> dict:
    """The character table of a finite abelian group as sparse columns: columns[j][i] is the value
    of character i of dual_group(group) at element j, the exponent's root of unity raised to
    sum_k m_k t_k (exponent / n_k).  Both index sets enumerate the same tuples, so the root indices
    are one matrix product of the element digits D, (D steps) D^T mod exponent; and m and t enter
    it alike, so the table is symmetric: read by columns it is the dual group's table.  Each of the
    exponent's roots is computed once, by ``backend.root``, and indexed by its power."""
    require(group, "finite_abelian")
    e = group.exponent
    digits = np.array(list(group.elements()), dtype=np.intp)
    powers = (digits * [e // n for n in group.orders]) @ digits.T % e
    roots = [backend.root(k, e) for k in range(e)]
    keys = range(group.order)
    return {j: dict(zip(keys, map(roots.__getitem__, row))) for j, row in enumerate(powers.tolist())}


@dataclass(frozen=True)
class LinearMap:
    """A linear map between two Hopf algebras as sparse columns.

    columns[j] is the image of domain basis vector j as a Vec in the
    codomain, the shape of ``HopfAlgebra.antipode``; missing entries mean zero.
    """

    domain: HopfAlgebra
    codomain: HopfAlgebra
    columns: Mapping

    @cached_property
    def _dense(self):
        """The columns read once as a dense array for the duality cycle's n^3 folds: root exponents
        on the cyclotomic backend (``_exponents``), (re, im) float64 parts on the float backend
        (``_floats``); None when the map is not square or the read does not hold.  Cached on the
        map, so the hom fold, the gram and the composite share one read; columns must not change
        after it."""
        b, n = self.domain.backend, self.domain.dim
        if self.codomain.dim != n:
            return None
        exps = _exponents(b, self.columns, n)
        return exps if exps is not None else _floats(b, self.columns, n)

    @cached_property
    def _holes(self) -> list:
        """[r, c] of each hole of the exponent read, an entry E[r, c] that is not a root, in (r, c)
        order; empty when the dense read is not one of exponents."""
        read = self._dense
        return np.argwhere(read < 0).tolist() if isinstance(read, np.ndarray) else []


def fourier(group: Group, backend) -> LinearMap:
    """The character-table map from the group algebra to functions on characters.

    A point mass at t goes to the function evaluating each character at t, so
    the entry in row m (character index) and column t is that character's
    value, read from ``_character_table``.  Rows are orthogonal: M conj(M^T) = |G| I.
    """
    columns = _character_table(group, backend)
    return LinearMap(group_algebra(group, backend), function_algebra(dual_group(group), backend), columns)


def _exponents(b, columns: Mapping, n: int):
    """columns read as an (n, n) intp array E of root exponents, E[r, c] = b._log[columns[c][r]],
    and -1 at a hole, an entry that is not a root; None unless b is cyclotomic and columns holds
    exactly the entries of range(n)^2.  Read from the values checked, so a bumped entry that is
    itself a root is read as it is.  Each entry is read once, by subscription, so a missing one
    raises KeyError and gives None, and a value that is not a root reads as -1.  The backend is
    told by its name, so a wrapper that forwards its attributes reads the same."""
    if b.name != "cyclotomic" or len(columns) != n:
        return None
    log = b._log
    try:
        cols = [columns[c] for c in range(n)]
    except KeyError:
        return None
    if any(len(col) != n for col in cols):
        return None
    try:
        return np.array([[log.get(col[r], -1) for col in cols] for r in range(n)], dtype=np.intp)
    except KeyError:   # a missing entry
        return None


def _root_sums(b, exponents, keep=None) -> np.ndarray:
    """sum_k z^exponents[..., k] for each leading index, as an int array of coefficient rows: a
    bincount of the exponents mod n per entry times the table of powers, the reduced tuple that
    b.add of the roots reaches, since Z[z] sums are plain int sums of the power-basis rows.  keep,
    a bool array that broadcasts to the exponents' shape, drops the terms where it is False: they
    go to one spare bin past the last, which is cut off."""
    lead, n = exponents.shape[:-1], b.n
    cells = int(np.prod(lead))
    flat = exponents.reshape(cells, -1) % n + (np.arange(cells) * n)[:, None]
    if keep is not None:
        flat[~np.broadcast_to(keep, exponents.shape).reshape(cells, -1)] = cells * n
    counts = np.bincount(flat.ravel(), minlength=cells * n + 1)[:cells * n].reshape(cells, n)
    return (counts @ np.array(b._mono, dtype=np.int64)).reshape(*lead, b.degree)


# a part past this magnitude could overflow a fold's products, where abs() of a complex raises
# OverflowError and np.hypot gives inf; under it every float fold's residual is finite
_FLOAT_PART_BOUND = 2.0**300


def _float_parts(rows):
    """rows of entries as two float64 arrays, real and imaginary parts; None unless every entry is a
    complex whose parts are at most _FLOAT_PART_BOUND in magnitude (so finite).  Read, not computed:
    the parts keep their bits."""
    if any(type(x) is not complex for row in rows for x in row):
        return None
    z = np.array(rows, dtype=np.complex128)
    parts = z.real.copy(), z.imag.copy()
    return parts if all((np.abs(p) <= _FLOAT_PART_BOUND).all() for p in parts) else None


def _floats(b, columns: Mapping, n: int):
    """columns read as (re, im) float64 (n, n) arrays, re[r, c] + im[r, c] j = columns[c][r]; None
    unless b is the float backend (told by its name, as in ``_exponents``), columns lists range(n)
    in order, each column lists its rows as range(n) in order, the order in which ``_compose``
    sums, and ``_float_parts`` reads every entry."""
    order = list(range(n))
    if b.name != "float" or list(columns) != order:
        return None
    cols = [columns[c] for c in order]
    if any(list(col) != order for col in cols):
        return None
    parts = _float_parts([list(col.values()) for col in cols])
    return None if parts is None else tuple(p.T.copy() for p in parts)


def _float_matmul(a, c):
    """The (re, im) product of two (re, im) n x n pairs, entry (i, j) the sum over k of
    a[i, k] c[k, j] added in k order from the first term as it is, as ``_compose`` adds it."""
    acc = None
    for k in range(a[0].shape[1]):
        term = times((a[0][:, k, None], a[1][:, k, None]), (c[0][k], c[1][k]))
        acc = term if acc is None else (acc[0] + term[0], acc[1] + term[1])
    return acc


def _conj_product(b, x, y):
    """The product P[p, q] = sum over k of X[p, k] conj(Y[q, k]), as the (product, holes) pair that
    ``_against_identity`` takes; None unless both operands read as exponents or both as floats, and
    the caller then sums it by ``_compose``.  Each operand is a (read, holes) pair: a dense read
    (``LinearMap._dense``, or its transpose) with X[p, k] at read[p, k], and {(p, k): X[p, k]} at
    each hole of an exponent read.  On floats P is one ``_float_matmul``, each term formed and
    added in k order as ``_compose`` forms and adds it.  On exponents the all-root terms are one
    ``_root_sums`` call, z^(X[p, k] - Y[q, k]), and only the terms that touch a hole go through
    the backend, n per hole of X and, per hole of Y, those not met already: holes maps (p, q) to
    their sum.  Exact sums do not depend on order, so every entry is the backend's."""
    (xr, xh), (yr, yh) = x, y
    if isinstance(xr, tuple) and isinstance(yr, tuple):
        return _float_matmul(xr, (yr[0].T, -yr[1].T)), None
    if not (isinstance(xr, np.ndarray) and isinstance(yr, np.ndarray)):
        return None
    # the all-root cells of each operand that has holes, broadcast over the other's rows
    keep = (xr >= 0)[:, None] if xh else None
    if yh:
        keep = yr >= 0 if keep is None else keep & (yr >= 0)

    def at(read, holes, p, k):
        """X[p, k] as a value: the hole's own, or the root b._mono[e] whose exponent was read."""
        return holes[p, k] if (p, k) in holes else b._mono[read[p, k]]

    holes: dict = {}
    terms = [(p, q, k) for p, k in xh for q in range(len(yr))]
    terms += [(p, q, k) for q, k in yh for p in range(len(xr)) if (p, k) not in xh]
    for p, q, k in terms:
        t = b.mul(at(xr, xh, p, k), b.conj(at(yr, yh, q, k)))
        holes[p, q] = b.add(holes[p, q], t) if (p, q) in holes else t
    return _root_sums(b, xr[:, None] - yr, keep), holes


def _fold_cells(res, tolerance) -> list[int]:
    """Flat indices into res, in C order, of its first residual past tolerance and of its first
    largest one.  Folded in that order they give the verdict, worst residual and witness of a fold
    over every cell of res, each residual finite, as ``_floats`` keeps it."""
    flat = res.ravel()
    return sorted({*np.flatnonzero(flat > tolerance)[:1].tolist(), int(flat.argmax())})


def _read_cells(b, x, y, values) -> list:
    """((a, c), lhs, rhs) for the cells of two dense reads x and y of one (m, n) layout that a fold
    of x against y over every cell must see, in (a, c) order: both exponent arrays (``_exponents``)
    or both (re, im) pairs (``_floats``).  On exponents these are the cells whose exponents differ
    and every cell where either side is a hole, each valued by values(a, c), the two backend values
    the fold compares there: the fold decides them, and an equal one adds residual 0.0 and no
    witness.  On floats they are the first cell past the tolerance and the first worst one
    (``_fold_cells``), valued from the read's parts."""
    if isinstance(x, tuple):
        res = np.hypot(x[0] - y[0], x[1] - y[1])
        return [(cell, complex(x[0][cell], x[1][cell]), complex(y[0][cell], y[1][cell]))
                for cell in (divmod(f, res.shape[1]) for f in _fold_cells(res, b.tolerance))]
    return [((a, c), *values(a, c)) for a, c in np.argwhere((x != y) | (x < 0) | (y < 0)).tolist()]


# cells (pair, r) per block of the float hom fold; called directly on a 2-core x86-64 host, Z48
# took about 4.6 -> 2.3 ms and Z256 700 -> 340 ms against the one-row-at-a-time fold, while
# 2^14-cell blocks raised perfbench float-duality's peak RSS by 3 %, 2^16-cell blocks of every
# pair were slower than rows, and rows with the mirror rule alone were slower than these blocks
# (README)
_HOM_BLOCK_CELLS = 1 << 12


def _float_hom_pairs(b, m, d, law):
    """(tag, lhs, rhs) of the cells a multiplicative fold must see, in (i, j) order, for a map read
    by ``_floats`` as m, a diagonal d as (re, im) length-n vectors and a law as an (n, n) int array:
    lhs = one m read through the law, rhs = (m[:, i] m[:, j]) d, each product as ``_apply`` and
    ``mul_vec`` form it.

    A pair (i, j) with i > j and law[i, j] == law[j, i] is left out: IEEE products and sums
    commute, so ``times`` gives (m_j m_i) d the bits of (m_i m_j) d, and the left side reads the
    same law cell, so each of its cells has the residual of its mirror's, which comes earlier.
    The first failing and first worst cells are then never left-out ones.  The listed pairs are
    laid out (pair, r) in blocks of about _HOM_BLOCK_CELLS cells, so no n^3 array is held; each
    block's two ``_fold_cells`` are kept, and the fold's two are picked from those."""
    n, tolerance = len(law), b.tolerance
    images = tuple(p.T.copy() for p in times((b.one.real, b.one.imag), m))   # [c, r]: phi(c) at r
    columns = tuple(p.T.copy() for p in m)                                     # [j, r]: m[r, j]
    first, second = np.nonzero(~(np.tri(n, k=-1, dtype=bool) & (law == law.T)))
    step = max(1, _HOM_BLOCK_CELLS // n)
    cells = []
    for at in range(0, len(first), step):
        i, j = first[at:at + step], second[at:at + step]
        lhs = tuple(p[law[i, j]] for p in images)
        rhs = times(times(tuple(p[i] for p in columns), tuple(p[j] for p in columns)), d)
        res = np.hypot(lhs[0] - rhs[0], lhs[1] - rhs[1])
        for q, r in (divmod(f, n) for f in _fold_cells(res, tolerance)):
            cells.append((res[q, r], f"({i[q]},{j[q]})", {r: complex(lhs[0][q, r], lhs[1][q, r])},
                          {r: complex(rhs[0][q, r], rhs[1][q, r])}))
    return [cells[f][1:] for f in _fold_cells(np.array([c[0] for c in cells]), tolerance)]


def _against_identity(b, product, n: int, scale: int, holes: Mapping | None = None) -> list:
    """((i, j), x) for each entry x of an n x n product that a fold against scale times the identity
    must see, in (i, j) order.  product and holes are what ``_conj_product`` returns, or sparse
    columns with entry (i, j) at product[j][i] and no holes.  On the exact backend these are the
    entries that differ, as an equal one adds residual 0.0 and no witness, and every entry that a
    hole sum touches, that sum added to its array entry, for the fold to decide.  On the float
    backend a pair gives what ``_read_cells`` lists against scale times the identity's parts, which
    fold to the verdict, residual and witness of every entry; sparse columns give every entry."""
    if isinstance(product, np.ndarray):
        target = np.zeros_like(product)
        diag = np.arange(n)
        target[diag, diag, 0] = scale
        listed = [((i, j), tuple(product[i, j].tolist()))
                  for i, j in np.argwhere((product != target).any(-1)).tolist()]
        if not holes:
            return listed
        entries = dict(listed)
        for (i, j), x in holes.items():
            entries[i, j] = b.add(tuple(product[i, j].tolist()), x)
        return sorted(entries.items())
    if isinstance(product, tuple):
        target = b.from_int(scale)
        eye = tuple(np.diag(np.full(n, t)) for t in (target.real, target.imag))
        return [(cell, x) for cell, x, _ in _read_cells(b, product, eye, None)]
    entries = [((i, j), product.get(j, {}).get(i, b.zero)) for i in range(n) for j in range(n)]
    if not b.exact:
        return entries
    diagonal = b.from_int(scale)
    return [((i, j), x) for (i, j), x in entries if not b.eq(x, diagonal if i == j else b.zero)]


def _algebra_hom(phi: LinearMap) -> tuple[CheckResult, CheckResult]:
    """The multiplicative and unital conditions of phi: h -> k, phi(ij) = phi(i) phi(j) on every
    basis pair (i, j), in (i, j) order, and phi(unit) = unit.

    Each pair folds phi applied to the product cell (``_apply``) against the product of the two
    images (``mul_vec``).  When h's product reads as a law (``_monomial_law``), as the group
    algebra's and a function algebra's dual's do, k's product is diagonal (``_diagonal_product``),
    as a function algebra's and a group algebra's dual's are, and phi's dense read
    (``LinearMap._dense``) holds and so does the same read of the diagonal, the fold runs on
    arrays.  On the cyclotomic backend (``_exponents``) the entries (r, i, j) are decided as
    exponents, E[:, law] == E[:, :, None] + E[:, None, :] + D mod n, and only a pair that differs
    is folded, on its differing entries, its rhs by ``mul_vec``: an equal entry adds residual 0.0
    and no witness, so the check is the full fold's.  An entry whose rhs meets a hole of the read,
    at (r, i) or (r, j), is folded too, and the fold decides it on the backend's products, about
    2n entries per hole, as ``_conj_product`` sums only a product's hole terms; a hole at its lhs
    alone makes it differ, as its rhs is then a root.  On the float backend (``_floats``) both
    sides are float64 parts, with the scalar operations ``_apply`` and ``mul_vec`` run, over the
    pairs in blocks of cells, leaving out a pair (i, j), i > j, whose mirror (j, i) reads the same
    law cell and so has the same residual bits; the fold sees its first failing and its worst
    cell (``_float_hom_pairs``), so again the check is the full fold's.
    """
    h, k, b = phi.domain, phi.codomain, phi.domain.backend
    img = [phi.columns.get(i, {}) for i in range(h.dim)]
    table, diagonal = _monomial_law(h), _diagonal_product(k)
    read = diag = None
    if table is not None and diagonal is not None and k.dim == h.dim == len(diagonal):
        read, values = phi._dense, [diagonal.get(m) for m in range(h.dim)]
        if isinstance(read, np.ndarray):
            diag = [b._log.get(x) for x in values]
            diag = None if None in diag else np.array(diag)
        elif read is not None:
            diag = _float_parts([values])
            diag = None if diag is None else tuple(p[0] for p in diag)

    def pairs_mult():
        if diag is not None and isinstance(read, np.ndarray):
            bad = read[:, table] != (read[:, :, None] + read[:, None, :] + diag[:, None, None]) % b.n
            if phi._holes:
                # entry (r, i, j) is folded when a rhs cell (r, i) or (r, j) is a hole, and the fold
                # decides it; a hole at its lhs cell alone is read as -1, unequal to the root its rhs
                # then is, as it should be
                hole = read < 0
                bad |= hole[:, :, None] | hole[:, None, :]
            for i, j in np.argwhere(bad.any(0)).tolist():
                u = {m: img[i][m] for m in np.flatnonzero(bad[:, i, j]).tolist()}
                yield f"({i},{j})", {m: img[table[i, j]][m] for m in u}, mul_vec(k, u, img[j])
            return
        if diag is not None:
            yield from _float_hom_pairs(b, read, diag, table)
            return
        for i, j in itertools.product(range(h.dim), repeat=2):
            lhs = _apply(b, phi.columns, h.mul.get((i, j), {}))
            yield f"({i},{j})", lhs, mul_vec(k, img[i], img[j])

    return (
        fold_checks("multiplicative", b, pairs_mult()),
        fold_checks("unital", b, [("unit", _apply(b, phi.columns, h.unit), dict(k.unit))]),
    )


def check_linear_hom(phi: LinearMap) -> tuple[list[CheckResult], list[CheckResult]]:
    """The five homomorphism conditions of phi: h -> k and of its transpose.

    Returns (conditions of phi, conditions of the transpose dual_hopf(k) ->
    dual_hopf(h)), each ordered multiplicative, unital, comultiplicative,
    counital, antipode.  Each map's comultiplicative and counital conditions
    are the other's multiplicative and unital ones, and the transpose's
    antipode condition is phi's transposed, so it is folded once, on phi:
    five folds for ten results.  Coalgebra witnesses name dual basis vectors
    (an (i,j) pair, ``unit``), the antipode witness a basis vector of h.  When
    the transpose is literally phi (equal columns, and duals ``==`` phi's
    domain and codomain), its conditions are phi's: three folds.
    The transpose's columns are phi's own when phi's dense read is bitwise
    symmetric with no hole (``_self_transpose``), as a character table's
    is, and ``_transpose``'s otherwise.
    Each multiplicative fold reads its domain's law and its codomain's
    diagonal where they have one (``_algebra_hom``), as both maps of a
    character table do: the group algebra onto a function algebra, and the
    function algebra's dual onto the group algebra's dual.  The antipode
    fold reads each antipode as a permutation and phi's dense read where
    both hold, as on a character table, whose antipodes are the inverse map
    (``_antipode_hom``); any other map is folded on two ``_compose`` sums.
    """
    h, k = phi.domain, phi.codomain
    columns = phi.columns if _self_transpose(phi) else _transpose(phi.columns)
    transpose = LinearMap(dual_hopf(k), dual_hopf(h), columns)
    hom = _algebra_hom(phi)
    shared = transpose.columns == phi.columns and transpose.domain == h and transpose.codomain == k
    return _sides((hom, hom if shared else _algebra_hom(transpose)), ("comultiplicative", "counital"),
                  (_antipode_hom(phi),))


def _self_transpose(f: LinearMap) -> bool:
    """True when f's dense read (``LinearMap._dense``) is bitwise symmetric with no hole, so f's
    columns are its transpose's, entry for entry and bit for bit, and ``_transpose`` need not
    build them: equal exponents are equal roots, and equal part bits are equal complexes."""
    read = f._dense
    if isinstance(read, np.ndarray):
        return not f._holes and np.array_equal(read, read.T)
    return read is not None and all(np.array_equal(p.view(np.int64), p.T.view(np.int64)) for p in read)


def _antipode_hom(phi: LinearMap) -> CheckResult:
    """The antipode condition of phi: h -> k, S_k phi = phi S_h column by column, witness the column.

    When phi's dense read holds and each antipode reads as a permutation (``_permutation``, ph of h
    and pk of k), column i of S_k phi is M[pk^-1[s], i] one at s and of phi S_h one M[s, ph[i]], so
    the fold compares two arrays of the read laid out (i, s), each cell ``_read_cells`` lists one
    pair tagged with its column, which folds to the columns' verdict, residual and witness.  On
    floats no product by one is formed: x one equals x but perhaps in the sign of a zero, which no
    residual sees.  Otherwise both sides are ``_compose`` sums."""
    h, k, b = phi.domain, phi.codomain, phi.domain.backend
    read, ph, pk = phi._dense, _permutation(h), _permutation(k)
    if read is None or ph is None or pk is None:
        left, right = _compose(b, k.antipode, phi.columns), _compose(b, phi.columns, h.antipode)
        return fold_checks("antipode", b, ((str(i), left.get(i, {}), right.get(i, {})) for i in range(h.dim)))
    back, one, cols = np.argsort(pk).tolist(), b.one, phi.columns

    def laid(f):
        return tuple(map(f, read)) if isinstance(read, tuple) else f(read)

    cells = _read_cells(b, laid(lambda m: m[back].T), laid(lambda m: m[:, ph].T),
                        lambda i, s: (b.mul(cols[i][back[s]], one), b.mul(one, cols[ph[i]][s])))
    return fold_checks("antipode", b, ((str(i), {s: u}, {s: v}) for (i, s), u, v in cells))


def unitarity_check(phi: LinearMap) -> CheckResult:
    """Row orthogonality M conj(M^T) = |G| I under the backend, |G| the dimension of phi's domain.

    The gram, entry (i, j) the sum over k of M[i, k] conj(M[j, k]), is ``_conj_product`` of phi's
    dense read with itself, or a ``_compose`` sum when the read does not hold, and the fold sees
    the entries ``_against_identity`` lists.
    """
    b, n, scale = phi.domain.backend, phi.codomain.dim, phi.domain.dim
    operand = phi._dense, {(r, c): phi.columns[c][r] for r, c in phi._holes}
    gram, holes = (_conj_product(b, operand, operand)
                   or (_compose(b, phi.columns, _conj(b, _transpose(phi.columns))), None))
    target = b.from_int(scale)
    return fold_checks("unitarity", b, ((f"rows ({i},{j})", {0: x}, {0: target if i == j else b.zero})
                                        for (i, j), x in _against_identity(b, gram, n, scale, holes)))


def _compose(backend, a: Mapping, c: Mapping) -> dict:
    """The sparse map a after c: column j is a applied to column j of c."""
    return {j: _apply(backend, a, col) for j, col in c.items()}


def _entries(columns: Mapping) -> dict:
    """A sparse map as one Vec keyed (row, column)."""
    return {(i, j): x for j, col in columns.items() for i, x in col.items()}


def _conj(backend, columns: Mapping) -> dict:
    """The entrywise conjugate of a sparse map."""
    return {j: {i: backend.conj(x) for i, x in col.items()} for j, col in columns.items()}


@dataclass(frozen=True)
class CycleReport:
    stages: tuple[CheckResult, ...]
    transform: LinearMap

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stages)


def _transpose_columns(phi: LinearMap, s_map: LinearMap) -> CheckResult:
    """The transpose-columns stage: every entry of phi against s_map's, one pair with no witness.
    When both dense reads hold, the fold sees the cells ``_read_cells`` lists; otherwise every
    entry (``_entries``)."""
    b, x, y = phi.domain.backend, phi._dense, s_map._dense
    if x is None or y is None:
        return fold_checks("transpose-columns", b, [("", _entries(phi.columns), _entries(s_map.columns))])
    cells = _read_cells(b, x, y, lambda r, c: (phi.columns[c][r], s_map.columns[c][r]))
    return fold_checks("transpose-columns", b, [("", {rc: u for rc, u, _ in cells}, {rc: v for rc, _, v in cells})])


def perturb_entry(perturb, order: int) -> tuple[int, ...]:
    """The (row, column) of a duality_cycle perturbation, each index checked to lie in 0..order-1."""
    return tuple(as_int(x, f"perturb[{k}]", minimum=0, maximum=order - 1) for k, x in enumerate(perturb))


def require_cycle_group(group: Group) -> Group:
    """The group duality_cycle takes: finite abelian, of order at most DUALITY_ORDER_CAP.

    ConfigError at "kind" for a group of another kind, or at "" for an order over the cap.
    """
    require(group, "finite_abelian")  # before the cap: an infinite group has no order
    if group.order > DUALITY_ORDER_CAP:
        fail("", f"duality cycle capped at order {DUALITY_ORDER_CAP}, got {group.order}")
    return group


def duality_cycle(group: Group, backend, perturb: tuple[int, int] | None = None) -> CycleReport:
    """Round-trip a finite abelian group through characters and dualization.

    Stages: the character-table map is a Hopf isomorphism; its transpose is a
    Hopf isomorphism between the duals, from the dual side's group algebra
    onto functions on the original group, sending each point mass at a
    character to that character's value table; rows are orthogonal; and
    composing the map with the inverse of the dual side's transposed map lands
    back on the identity matrix, which realizes the biduality identification
    as literal equality.  Both hom stages come from one ``check_linear_hom``
    call, which says which conditions the two maps share.

    The dual side is the character table alone, ``_character_table(dual_group(group))``,
    with no algebras of its own.  Under the biduality its transposed map has
    phi's type, so it is a LinearMap between phi's algebras, whose backend and
    dimensions are all ``unitarity_check`` reads.  The table is symmetric by
    construction, each cell and its mirror one root object, so that map is
    built on the table itself.

    Unitarity and cycle-identity each fold one n x n product against |G| I:
    the gram, the map times its conjugate transpose, and the composite, the
    table's conjugate times the map, computed transposed.  Each is one
    ``_conj_product`` of dense reads, each operand read once
    (``LinearMap._dense``; the table through the dual side's map, its
    transpose), or a ``_compose`` sum where a read does not hold, and its
    one ``fold_checks`` call sees what ``_against_identity`` lists: on the
    exact backend the entries that differ from |G| I in Z[zeta_n], before
    any scaling.  The composite's listed entries are scaled by 1/|G| and
    meet the identity in one row, into which the dual side's unitarity is
    folded; on the float array path the whole composite is scaled first, as
    the tolerance meets the scaled entries, and the listing is against I.

    The character table is symmetric, so unperturbed its transpose and the
    dual side's transposed map are literally the map itself: transpose-hom
    then reuses the transform-hom conditions and the dual side's unitarity
    is the unitarity stage.  A perturbed map takes the full path wherever its
    input differs.  On the exact backend an entry that is not a root, as most
    bumped entries are, is a hole of the exponent read: each of the three
    folds sums its all-root terms on arrays and only the terms that touch a
    hole through the backend, so a perturbed cycle costs about what an
    unperturbed one does.  Exact sums do not depend on order and each value
    has one reduced tuple, so verdicts, residuals and witnesses are those of
    the backend path.  Every fold of a map with a missing entry is summed
    through the backend: each hom fold then applies its map to every product
    cell and multiplies the two images (``_algebra_hom``), and the gram and
    the composite are ``_compose`` sums.  On the float backend a bumped
    entry is still a finite complex, so the three folds stay on arrays; only
    a map ``_floats`` turns away (a missing or non-finite entry, rows or
    columns out of order) is summed through the backend.

    The antipode condition and transpose-columns compare two arrays of the
    dense reads cell by cell (``_read_cells``): phi's read with its rows and
    its columns permuted by the two antipodes (``_antipode_hom``), and phi's
    read with the dual side's map's (``_transpose_columns``).  Exact, they
    list the cells whose exponents differ and every cell at a hole, which
    the fold decides; float, the first failing and the first worst cell.
    Where a read does not hold they fold ``_compose`` sums and every entry.

    ``perturb`` bumps one matrix entry before checking; a single corrupted
    entry must trip at least one stage.
    """
    require_cycle_group(group)
    b = backend
    phi = fourier(group, b)
    if perturb is not None:
        i, j = perturb_entry(perturb, group.order)
        column = phi.columns[j]
        phi = LinearMap(phi.domain, phi.codomain,
                        {**phi.columns, j: {**column, i: b.add(column[i], b.one)}})
    stages = []

    hom, transpose_hom = check_linear_hom(phi)
    stages.append(_all_of("transform-hom", hom))
    stages.append(_all_of("transpose-hom", transpose_hom))

    # the transpose sends a point mass at a character to that character's value table,
    # which is the dual side's table read by rows: value(m, t) and value(t, m) share one root index
    table = _character_table(dual_group(group), b)
    s_map = LinearMap(phi.domain, phi.codomain, table)
    stages.append(_transpose_columns(phi, s_map))

    unitarity = unitarity_check(phi)
    stages.append(unitarity)

    # the dual side's transposed map, inverted, closes the cycle
    s_unit = unitarity if s_map.columns == phi.columns else unitarity_check(s_map)
    n, inv_scale = group.order, Fraction(1, group.order)

    def transposed(f):
        """f's dense read transposed, X[p, k] = f's entry (k, p), and the values at its holes."""
        read = f._dense
        if read is not None:
            read = read.T if isinstance(read, np.ndarray) else tuple(p.T for p in read)
        return read, {(c, r): f.columns[c][r] for r, c in f._holes}

    # the composite transposed, entry (j, r) the sum over k of M[k, j] conj(T[r, k]), with s_map's
    # read the table T's transposed: cycle-identity folds it as one pair, whose entries and target I
    # are the same set under a transpose.  The backend sum keeps the (r, j) orientation
    composite, holes = (_conj_product(b, transposed(phi), transposed(s_map))
                        or (_compose(b, _conj(b, table), phi.columns), None))
    if isinstance(composite, tuple):
        # on floats the entries are scaled before they are listed, as the tolerance meets them scaled
        scaled = dict(_against_identity(b, times(composite, (float(inv_scale), 0.0)), n, 1))
    else:
        scaled = {k: b.scale(x, inv_scale) for k, x in _against_identity(b, composite, n, n, holes)}
    cycle = fold_checks("cycle-identity", b, [("", scaled, {k: b.one for k in scaled if k[0] == k[1]})])
    stages.append(replace(cycle, passed=cycle.passed and s_unit.passed, residual=max(cycle.residual, s_unit.residual)))
    return CycleReport(stages=tuple(stages), transform=phi)


# ---------------------------------------------------------------------------
# tensor products


def require_tensor_dim(dim: int) -> None:
    """ConfigError at "" for a tensor_hopf dimension over TENSOR_DIM_CAP."""
    if dim > TENSOR_DIM_CAP:
        fail("", f"tensor dimension {dim} exceeds the cap {TENSOR_DIM_CAP}")


def tensor_hopf(h: HopfAlgebra, k: HopfAlgebra) -> HopfAlgebra:
    """Tensor product Hopf structure; pair (i, j) gets index i * dim(k) + j.  Two law views in one
    role make one law view, their Kronecker law; any other pair of tensors makes a dict."""
    require_tensor_dim(h.dim * k.dim)
    if h.backend != k.backend:
        raise ValueError("tensor factors must share a backend")
    b = h.backend
    dh, dk = h.dim, k.dim

    def idx(i, j):
        return i * dk + j

    def pidx(s, t):
        return (idx(s[0], t[0]), idx(s[1], t[1]))

    def blocks(hm, km, outer, inner):
        """The tensor of two sparse maps: column (s, t) is the outer product of columns s and t.
        Of two law views in one role it is the Kronecker law law_h[i1, i2] dk + law_k[j1, j2] at
        (i1 dk + j1, i2 dk + j2), listed in its role's fixed order (``_LawView``)."""
        if not (type(hm) is type(km) and isinstance(hm, _LawView)
                and len(hm.law) == dh and len(km.law) == dk):
            return {outer(s, t): _kron(b, x, y, inner) for s, x in hm.items() for t, y in km.items()}
        law = (hm.law[:, None, :, None] * dk + km.law[None, :, None, :]).reshape(dh * dk, dh * dk)
        law.flags.writeable = False
        return type(hm)(law, b.mul(hm.one, km.one))

    return HopfAlgebra(
        dim=h.dim * k.dim,
        labels=tuple(
            f"{h.labels[i]}(x){k.labels[j]}" for i in range(h.dim) for j in range(k.dim)
        ),
        backend=b,
        mul=blocks(h.mul, k.mul, pidx, idx),
        unit=_kron(b, h.unit, k.unit, idx),
        comul=blocks(h.comul, k.comul, idx, pidx),
        counit=_kron(b, h.counit, k.counit, idx),
        antipode=blocks(h.antipode, k.antipode, idx, idx),
    )


def product_iso_check(g1: Group, g2: Group, backend) -> list[CheckResult]:
    """Tensor-by-tensor match between product-group structures and tensor squares.

    The enumeration of a direct product lists pairs in row-major order, which
    is exactly the tensor index convention, so the point-mass bijection is the
    identity matrix and the comparison is literal tensor equality.  Both the
    convolution-side and function-side isomorphisms are checked; a failing
    one names its first differing cell, such as ``mul (i,j)`` or ``comul i``.
    The product side's law is the product group's own (``_cayley_table``),
    the tensor side's the Kronecker law of the factors', so the two are built
    two ways; each of the three groups makes one table for both sides, two
    law views are compared as arrays, and only a side that differs is folded
    cell by cell (``_tensor_fold``).
    """
    prod = direct_product(g1, g2)
    results = []
    for name, build in (("convolution-side", group_algebra), ("function-side", function_algebra)):
        t = tensor_hopf(build(g1, backend), build(g2, backend))
        results.append(_tensor_fold(name, backend, build(prod, backend), t))
    return results
