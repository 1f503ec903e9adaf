"""Concrete discrete groups with exact arithmetic and canonical element forms.

Elements are plain tuples in a per-kind normal form, so they hash, compare,
and serialize deterministically.  All element arithmetic uses Python integers,
which are arbitrary precision; nothing here can wrap around silently.  A finite
group's law on element indices (``Group.law``) is an intp array, whose entries
stay below twice the order or, for a symmetric group's composites, below
degree**degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .reports import as_int, fail

Element = tuple

SYMMETRIC_DEGREE_CAP = 6
# cells of the largest temporary a symmetric group's law makes, 128 KiB of intp (glibc's default
# mmap threshold), so that the law is the one n x n array it makes
_BLOCK_CELLS = 2**14

SIZE_FIELDS = ("orders", "rank", "degree")  # each kind takes at most one: its class's size_field
_UNSET = object()  # a field not given, as distinct from one given as None (JSON null)


@dataclass(frozen=True)
class GroupSpec:
    """A buildable group: a kind and its one size field; the other two end up None.

    A bad field raises ConfigError (a ValueError) at its path, such as ``orders[0]``.
    """

    kind: str
    orders: tuple[int, ...] | None = _UNSET
    rank: int | None = _UNSET
    degree: int | None = _UNSET
    label: str = ""

    def __post_init__(self):
        if self.kind not in _BUILDERS:
            fail("kind", f"unknown group kind {self.kind!r} (expected one of {tuple(_BUILDERS)})")
        own = _BUILDERS[self.kind].size_field
        if own == "orders":
            if not isinstance(self.orders, (list, tuple)) or not self.orders:
                fail("orders", "expected a non-empty list of positive integers")
            for i, n in enumerate(self.orders):
                as_int(n, f"orders[{i}]", minimum=1)
            object.__setattr__(self, "orders", tuple(self.orders))
        elif own is not None:
            if getattr(self, own) is _UNSET:
                fail(own, "required")
            as_int(getattr(self, own), own, minimum=1,
                   maximum=SYMMETRIC_DEGREE_CAP if own == "degree" else None)
        for other in SIZE_FIELDS:
            if other != own:
                if getattr(self, other) is not _UNSET:
                    fail(other, f"not a {self.kind} field")
                object.__setattr__(self, other, None)

    @classmethod
    def finite_abelian(cls, orders: Sequence[int], label: str = "") -> "GroupSpec":
        return cls(kind="finite_abelian", orders=tuple(orders), label=label)

    @classmethod
    def symmetric(cls, degree: int, label: str = "") -> "GroupSpec":
        return cls(kind="symmetric", degree=degree, label=label)

    @classmethod
    def heisenberg(cls, label: str = "") -> "GroupSpec":
        return cls(kind="heisenberg", label=label)

    @classmethod
    def free(cls, rank: int, label: str = "") -> "GroupSpec":
        return cls(kind="free", rank=rank, label=label)

    @classmethod
    def free_abelian(cls, rank: int, label: str = "") -> "GroupSpec":
        return cls(kind="free_abelian", rank=rank, label=label)


class Group:
    """Base class: a group whose elements are canonical tuples.

    Subclasses fix the payload shape and implement the law; ``identity`` and
    ``order`` are plain attributes, set once when the group is built.
    ``check`` is the membership gate, run wherever elements enter from a
    caller: payload parsing, generator sets, ``power``, ``format``, weighted
    vectors, length lookups and the sampled checks; a payload from the wrong
    group raises ValueError there.  ``mul`` and ``inv`` take canonical elements
    and do not re-check them, because search loops call them millions of times.
    """

    kind: str = ""
    size_field: str | None = None  # the one GroupSpec field the kind takes (None: it takes none)
    is_finite: bool = False
    identity: Element
    order: int | None = None  # number of elements, or None when infinite

    def __init__(self, spec: GroupSpec, label: str, identity: Element, order: int | None = None):
        self.label = spec.label or label
        self.identity = identity
        self.order = order

    def check(self, x) -> Element:
        """Validate x as an element and return its canonical form."""
        raise NotImplementedError

    def mul(self, x: Element, y: Element) -> Element:
        raise NotImplementedError

    def inv(self, x: Element) -> Element:
        raise NotImplementedError

    @property
    def exponent(self) -> int:
        """lcm of the element orders: the root order exact backends need."""
        raise ValueError(f"group {self.label!r} has no closed-form exponent")

    def elements(self) -> Iterator[Element]:
        """Deterministic enumeration; only finite groups support it."""
        raise ValueError(f"group {self.label!r} is infinite and cannot be enumerated")

    def law(self) -> np.ndarray:
        """The law on indices in elements() order: an (n, n) intp array whose [i, j] is the index of
        the i-th element times the j-th.  Here one ``mul`` per cell; a kind whose law is arithmetic
        on its own elements() order computes it on arrays instead, so a subclass that lists the
        elements in another order must override this too."""
        elems = list(self.elements())
        index = {x: i for i, x in enumerate(elems)}
        n, mul = len(elems), self.mul
        return np.fromiter((index[mul(s, t)] for s in elems for t in elems), dtype=np.intp,
                           count=n * n).reshape(n, n)

    def format(self, x: Element) -> str:
        return repr(self.check(x))

    def power(self, x: Element, n: int) -> Element:
        """x**n for any integer n, by repeated squaring."""
        x = self.check(x)
        if n < 0:
            x, n = self.inv(x), -n
        acc = self.identity
        while n:
            if n & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            n >>= 1
        return acc

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


def _check_int_tuple(x, size: int, what: str) -> tuple:
    if not isinstance(x, tuple) or len(x) != size:
        raise ValueError(f"{what}: expected a tuple of {size} integers, got {x!r}")
    for a in x:
        if not isinstance(a, int):
            raise ValueError(f"{what}: non-integer entry {a!r}")
    return x


class FiniteAbelianGroup(Group):
    """Direct product of cyclic groups Z_{n_1} x ... x Z_{n_r}, residue tuples."""

    kind = "finite_abelian"
    size_field = "orders"
    is_finite = True

    def __init__(self, spec: GroupSpec):
        super().__init__(spec, "Z" + "x".join(str(n) for n in spec.orders),
                         tuple(0 for _ in spec.orders), math.prod(spec.orders))
        self.orders = spec.orders

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders)

    def check(self, x) -> Element:
        _check_int_tuple(x, len(self.orders), self.label)
        for a, n in zip(x, self.orders):
            if not 0 <= a < n:
                raise ValueError(f"{self.label}: residue {a} out of range for order {n}")
        return x

    def mul(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def inv(self, x):
        return tuple((-a) % n for a, n in zip(x, self.orders))

    def elements(self) -> Iterator[Element]:
        return iter(itertools.product(*(range(n) for n in self.orders)))

    def law(self) -> np.ndarray:
        # elements() lists residue tuples last coordinate fastest, so x has index sum_k x_k stride_k.
        # Coordinate by coordinate from the last, the law adds x_k stride_k + y_k stride_k and takes
        # the remainder by n_k stride_k, which reduces x_k + y_k mod n_k and keeps the coordinates
        # after k, as they sum to less than stride_k; all in place, so the law is the one n x n array
        n = self.order
        index = np.arange(n, dtype=np.intp)
        law = np.zeros((n, n), dtype=np.intp)
        stride = 1
        for m in reversed(self.orders):
            place = index // stride % m * stride
            law += place[:, None]
            law += place
            stride *= m
            law %= stride
        return law


class SymmetricGroup(Group):
    """Permutations of {0..n-1} as image tuples; (p*q)[i] = p[q[i]]."""

    kind = "symmetric"
    size_field = "degree"
    is_finite = True

    def __init__(self, spec: GroupSpec):
        super().__init__(spec, f"S{spec.degree}", tuple(range(spec.degree)), math.factorial(spec.degree))
        self.degree = spec.degree

    @property
    def exponent(self) -> int:
        # every cycle length 1..n occurs, and an element's order is the lcm of its cycle lengths
        return math.lcm(*range(1, self.degree + 1))

    def check(self, x) -> Element:
        _check_int_tuple(x, self.degree, self.label)
        if sorted(x) != list(range(self.degree)):
            raise ValueError(f"{self.label}: {x!r} is not a permutation of 0..{self.degree - 1}")
        return x

    def mul(self, x, y):
        # apply y first, then x
        return tuple(x[y[i]] for i in range(self.degree))

    def inv(self, x):
        out = [0] * self.degree
        for i, xi in enumerate(x):
            out[xi] = i
        return tuple(out)

    def elements(self) -> Iterator[Element]:
        return iter(itertools.permutations(range(self.degree)))

    def law(self) -> np.ndarray:
        # the permutations as image rows; row p of the law composes p with every q, (p * q)[i] =
        # p[q[i]], which is p's row read at q's images, and ranks each composite by its base-degree
        # code.  A block of rows at a time, so that no temporary holds more than _BLOCK_CELLS cells
        d = self.degree
        perms = np.array(list(self.elements()), dtype=np.intp).reshape(-1, d)
        n = len(perms)
        powers = d ** np.arange(d - 1, -1, -1)
        rank = np.zeros(d**d, dtype=np.intp)
        rank[perms @ powers] = np.arange(n)
        law = np.empty((n, n), dtype=np.intp)
        block = max(1, _BLOCK_CELLS // (n * d))
        for start in range(0, n, block):
            rows = slice(start, start + block)
            law[rows] = rank[perms[rows][:, perms] @ powers]
        return law


class HeisenbergGroup(Group):
    """Integer triples (a, b, c) under (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').

    The triple (a, b, c) encodes the unitriangular matrix with a top-middle,
    b middle-right, and c top-right; the law above is exactly that matrix
    product, and (a,b,c)^-1 = (-a, -b, a*b - c).
    """

    kind = "heisenberg"
    is_finite = False

    def __init__(self, spec: GroupSpec):
        super().__init__(spec, "Heis", (0, 0, 0))

    def check(self, x) -> Element:
        return _check_int_tuple(x, 3, self.label)

    def mul(self, x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])

    def inv(self, x):
        a, b, c = x
        return (-a, -b, a * b - c)


class FreeGroup(Group):
    """Free group on r generators; elements are reduced signed-index words.

    The word (1, -2, 1) means g1 * g2^-1 * g1.  Normal form bans adjacent
    cancelling pairs, and mul re-reduces across the junction.
    """

    kind = "free"
    size_field = "rank"
    is_finite = False

    def __init__(self, spec: GroupSpec):
        super().__init__(spec, f"F{spec.rank}", ())
        self.rank = spec.rank

    def check(self, x) -> Element:
        if not isinstance(x, tuple):
            raise ValueError(f"{self.label}: expected a tuple word, got {x!r}")
        for s in x:
            if not isinstance(s, int) or s == 0 or abs(s) > self.rank:
                raise ValueError(f"{self.label}: bad letter {s!r} (rank {self.rank})")
        for a, b in zip(x, x[1:]):
            if a == -b:
                raise ValueError(f"{self.label}: word {x!r} is not reduced")
        return x

    def mul(self, x, y):
        out = list(x)
        for s in y:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    def inv(self, x):
        return tuple(-s for s in reversed(x))


class FreeAbelianGroup(Group):
    """Z^r with componentwise addition; elements are integer vectors."""

    kind = "free_abelian"
    size_field = "rank"
    is_finite = False

    def __init__(self, spec: GroupSpec):
        super().__init__(spec, f"Z^{spec.rank}", tuple(0 for _ in range(spec.rank)))
        self.rank = spec.rank

    def check(self, x) -> Element:
        return _check_int_tuple(x, self.rank, self.label)

    def mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)


class DirectProductGroup(Group):
    """G x H with pair elements (x, y); used by the tensor-product isomorphism check."""

    kind = "product"

    def __init__(self, left: Group, right: Group):
        self.left = left
        self.right = right
        self.label = f"({left.label})x({right.label})"
        self.is_finite = left.is_finite and right.is_finite
        self.identity = (left.identity, right.identity)
        self.order = left.order * right.order if self.is_finite else None

    def check(self, x) -> Element:
        if not isinstance(x, tuple) or len(x) != 2:
            raise ValueError(f"{self.label}: expected a pair, got {x!r}")
        return (self.left.check(x[0]), self.right.check(x[1]))

    def mul(self, x, y):
        return (self.left.mul(x[0], y[0]), self.right.mul(x[1], y[1]))

    def inv(self, x):
        return (self.left.inv(x[0]), self.right.inv(x[1]))

    def elements(self) -> Iterator[Element]:
        if not self.is_finite:
            return super().elements()
        return iter(itertools.product(self.left.elements(), self.right.elements()))

    def format(self, x):
        x = self.check(x)
        return f"({self.left.format(x[0])}|{self.right.format(x[1])})"


# group kind -> its class; the order is the one the unknown-kind message lists
_BUILDERS = {cls.kind: cls for cls in (FiniteAbelianGroup, SymmetricGroup, HeisenbergGroup, FreeGroup,
                                       FreeAbelianGroup)}


def make_group(spec: GroupSpec) -> Group:
    """Build the group described by spec."""
    return _BUILDERS[spec.kind](spec)


def direct_product(left: Group, right: Group) -> DirectProductGroup:
    return DirectProductGroup(left, right)


def require(group: Group, kind: str | None = None) -> Group:
    """The group a construction needs: finite, or of ``kind`` when one is named.

    ConfigError at "" for an infinite group, or at "kind" for a group of another kind.
    """
    if kind is None and not group.is_finite:
        fail("", f"needs a finite group, got {group.label!r}")
    if kind not in (None, group.kind):
        fail("kind", f"needs a {kind} group, got kind {group.kind!r}")
    return group


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered tuple of generators; order matters for enumerated weights."""

    elements: tuple[Element, ...]


def walk(start, gens: Sequence, step: Callable) -> dict:
    """Breadth-first walk of a Cayley graph: everything reachable from start by right steps.

    Returns a dict, in the order reached, mapping each element reached to the
    edge (x, g) that first reached it, so that step(x, g) is that element;
    start maps to None.  An element is expanded by every g of gens in order,
    so step runs once per element reached and generator.  The elements may be
    group elements (step ``group.mul``) or table indices (step through a law).
    """
    tree = {start: None}
    queue = [start]
    for x in queue:
        for g in gens:
            y = step(x, g)
            if y not in tree:
                tree[y] = (x, g)
                queue.append(y)
    return tree


def make_generator_set(group: Group, elements: Sequence[Element]) -> GeneratorSet:
    """Validate generators against the group and package them.

    Duplicates are rejected.  For finite groups the semigroup closure, one
    ``walk`` from the identity, is checked against the whole group; infinite
    built-ins rely on the standard sets constructed by ``standard_generators``.
    """
    canon = tuple(group.check(e) for e in elements)
    seen = set()
    for e in canon:
        if e in seen:
            raise ValueError(f"duplicate generator {e!r}")
        seen.add(e)
    if group.is_finite:
        reached = len(walk(group.identity, canon, group.mul))
        if reached != group.order:
            raise ValueError(f"generators reach only {reached} of {group.order} elements of {group.label}")
    return GeneratorSet(elements=canon)


def standard_generators(group: Group) -> GeneratorSet:
    """The default ordered generating set for each built-in kind.

    Orderings are part of the contract: enumerated weights assign weight k to
    the k-th generator listed here.
    """
    if isinstance(group, FiniteAbelianGroup):
        gens = []
        for i, n in enumerate(group.orders):
            if n > 1:
                gens.append(tuple(1 if j == i else 0 for j in range(len(group.orders))))
        return make_generator_set(group, gens)
    if isinstance(group, SymmetricGroup):
        n = group.degree
        if n == 1:
            return make_generator_set(group, [])
        swap = tuple([1, 0] + list(range(2, n)))
        if n == 2:
            return make_generator_set(group, [swap])
        cycle = tuple(list(range(1, n)) + [0])
        return make_generator_set(group, [swap, cycle])
    if isinstance(group, HeisenbergGroup):
        a, b = (1, 0, 0), (0, 1, 0)
        return make_generator_set(group, [a, group.inv(a), b, group.inv(b)])
    if isinstance(group, FreeGroup):
        gens = []
        for i in range(1, group.rank + 1):
            gens.extend([(i,), (-i,)])
        return make_generator_set(group, gens)
    if isinstance(group, FreeAbelianGroup):
        gens = []
        for i in range(group.rank):
            e = tuple(1 if j == i else 0 for j in range(group.rank))
            gens.extend([e, group.inv(e)])
        return make_generator_set(group, gens)
    raise ValueError(f"no standard generator set for {group.label!r}")


def _listed(p):
    if isinstance(p, list):
        return tuple(_listed(q) for q in p)
    return p


def element_from_payload(group: Group, payload) -> Element:
    """Convert a JSON-style payload (possibly nested lists of ints) to an element."""
    return group.check(_listed(payload))
