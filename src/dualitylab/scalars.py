"""Scalar backends: tolerance-based complex floats and exact cyclotomic rationals.

The exact backend works in the field of rationals with a primitive N-th root
of unity adjoined.  Values are coefficient tuples against the power basis
1, z, ..., z^(d-1), reduced modulo the N-th cyclotomic polynomial.  The
operations are ring ones, ``add`` and ``mul``, plus ``conj`` and ``scale``.
Roots of unity and everything ``add``, ``mul`` and ``conj`` build from them
stay in Z[z], where the monic modulus keeps every step in plain ``int``
arithmetic; values stay ``int`` tuples until ``scale``, the one place a
``Fraction`` enters, and the two kinds mix freely after it.  The roots
themselves are looked up rather than computed with: the product of z^a and
z^b is z^((a+b) mod N) and the conjugate of z^a is z^(-a mod N), both read
from the table of powers.  Reduction modulo the cyclotomic polynomial gives
every element one tuple, so the lookup returns the tuple the schoolbook
product would.  Equality is literal tuple equality.  ``residual`` is 0.0 for
equal values and otherwise the float distance of the complex embeddings: it
is reported, never used to decide.

Each backend's ``read`` turns rows of its values into arrays for the dense
folds: the exact backend reads root exponents, the float backend (re, im)
float64 parts.  Only this module knows how a value is stored.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .reports import fail

DEFAULT_TOLERANCE = 1e-9  # the float backend's equality tolerance when a config or caller gives none


def require_tolerance(tolerance: float) -> float:
    """The float backend's equality tolerance; ConfigError at "" unless it is positive and below 1:
    at 1 or more ``eq(one, zero)`` holds, so no verdict tells a vector from zero."""
    if tolerance <= 0:
        fail("", f"must be positive, got {tolerance}")
    if tolerance >= 1:
        fail("", f"must be below 1, where one and zero compare equal, got {tolerance}")
    return tolerance


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n.  Each divisor is monic, so the long division needs no
    rational arithmetic, and every division is exact.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            divisor = cyclotomic_poly(d)
            db = len(divisor) - 1
            q = [0] * (len(poly) - db)
            for k in reversed(range(len(q))):
                coef = q[k] = poly[k + db]
                if coef:
                    for j, bj in enumerate(divisor):
                        poly[k + j] -= coef * bj
            if any(poly[:db]):
                raise ArithmeticError(f"non-exact division while building index {n}")
            poly = q
    return tuple(poly)


# a part past this magnitude could overflow a fold's products, where abs() of a complex raises
# OverflowError and np.hypot gives inf; under it every float fold's residual is finite
_FLOAT_PART_BOUND = 2.0**300


def times(x, y):
    """The entrywise product of two (re, im) pairs as CPython multiplies complex numbers, one float64
    ufunc per operation: numpy's own complex product rounds differently."""
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


class ComplexFloatBackend:
    """IEEE complex numbers with a fixed absolute equality tolerance."""

    name = "float"
    exact = False

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE):
        self.tolerance = require_tolerance(tolerance)
        self.zero = 0j
        self.one = 1 + 0j

    def from_int(self, n: int):
        return complex(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def conj(self, a):
        return a.conjugate()

    def scale(self, a, q):
        return a * float(Fraction(q))

    def read(self, rows):
        """rows of entries as two float64 arrays, real and imaginary parts; None unless every entry is
        a complex whose parts are at most _FLOAT_PART_BOUND in magnitude (so finite).  Read, not
        computed: the parts keep their bits."""
        if any(type(x) is not complex for row in rows for x in row):
            return None
        z = np.array(rows, dtype=np.complex128)
        parts = z.real.copy(), z.imag.copy()
        return parts if all((np.abs(p) <= _FLOAT_PART_BOUND).all() for p in parts) else None

    def root(self, k: int, m: int):
        """The k-th power of the primitive m-th root of unity."""
        if m < 1:
            raise ValueError(f"root order must be >= 1, got {m}")
        return cmath.exp(2j * math.pi * (k % m) / m)

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tolerance

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tolerance

    def to_complex(self, a) -> complex:
        return a

    def residual(self, a, b) -> float:
        return abs(a - b)

    def format(self, a) -> str:
        return f"{a.real:.12g}{a.imag:+.12g}j"

    def __eq__(self, other) -> bool:
        return type(other) is ComplexFloatBackend and other.tolerance == self.tolerance

    def __hash__(self):
        return hash((self.name, self.tolerance))


class CyclotomicBackend:
    """Exact arithmetic in the rationals with a primitive N-th root adjoined."""

    name = "cyclotomic"
    exact = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"cyclotomic order must be >= 1, got {n}")
        self.n = n
        self.modulus = cyclotomic_poly(n)
        self.degree = len(self.modulus) - 1
        self.zero = (0,) * self.degree
        self.one = (1,) + self.zero[1:]
        # z^e for every exponent mod n: multiply the previous power by z, then
        # fold its z^degree term back, which the monic modulus makes one step
        self._mono = [self.one]
        for _ in range(n - 1):
            top, shifted = self._mono[-1][-1], (0,) + self._mono[-1][:-1]
            self._mono.append(tuple(x - top * m for x, m in zip(shifted, self.modulus)) if top else shifted)
        # the exponent of each root: the powers are distinct field elements, so distinct tuples
        self._log = {z: e for e, z in enumerate(self._mono)}

    def from_int(self, k: int):
        return (k,) + self.zero[1:]

    def add(self, a, b):
        return tuple(map(operator.add, a, b))

    def mul(self, a, b):
        """The other factor when one is one (as every structure constant built here is 0 or 1),
        z^((a+b) mod n) when both are roots z^a and z^b (as every character value is), else the
        schoolbook product, then each z^e with e >= degree folded in as z^(e mod n)."""
        if a == self.one:
            return b
        if b == self.one:
            return a
        ka = self._log.get(a)
        if ka is not None:
            kb = self._log.get(b)
            if kb is not None:
                return self._mono[(ka + kb) % self.n]
        if not any(a) or not any(b):
            return self.zero
        d = self.degree
        out = _poly_mul(a, b)
        for e in range(d, 2 * d - 1):
            c = out[e]
            if c:
                for k, m in enumerate(self._mono[e % self.n]):
                    if m:
                        out[k] += c * m
        return tuple(out[:d])

    def scale(self, a, q):
        q = Fraction(q)
        return tuple(x * q for x in a)

    def conj(self, a):
        """Complex conjugation: z^(-a mod n) for a root z^a, else substitute z -> z^(n-1)
        monomial by monomial."""
        e = self._log.get(a)
        if e is not None:
            return self._mono[-e % self.n]
        out = [0] * self.degree
        for k, c in enumerate(a):
            if c:
                mono = self._mono[(k * (self.n - 1)) % self.n]
                for j, m in enumerate(mono):
                    out[j] += c * m
        return tuple(out)

    def read(self, rows):
        """rows of entries as an intp array of root exponents, e where an entry is z^e and -1 where
        it is not a root.  Read from the values, so a value that is a root reads as its own exponent,
        whatever it was built from."""
        log = self._log
        return np.array([[log.get(x, -1) for x in row] for row in rows], dtype=np.intp)

    def root(self, k: int, m: int):
        """z_m^k as an element of this field; m must divide the ambient order."""
        if m < 1:
            raise ValueError(f"root order must be >= 1, got {m}")
        if self.n % m != 0:
            raise ValueError(f"order-{m} roots unavailable in the cyclotomic({self.n}) field")
        return self._mono[((k % m) * (self.n // m)) % self.n]

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return not any(a)

    def to_complex(self, a) -> complex:
        z = cmath.exp(2j * math.pi / self.n)
        acc = 0j
        for k in reversed(range(self.degree)):
            acc = acc * z + complex(float(a[k]))
        return acc

    def residual(self, a, b) -> float:
        return 0.0 if a == b else abs(self.to_complex(a) - self.to_complex(b))

    def format(self, a) -> str:
        """Readable polynomial in the primitive root z, e.g. ``1-z^2``."""
        terms = []
        for k, c in enumerate(a):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
                continue
            power = "z" if k == 1 else f"z^{k}"
            if c == 1:
                terms.append(power)
            elif c == -1:
                terms.append(f"-{power}")
            else:
                terms.append(f"{c}*{power}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def __eq__(self, other) -> bool:
        return type(other) is CyclotomicBackend and other.n == self.n

    def __hash__(self):
        return hash((self.name, self.n))


def make_backend(name: str, tolerance: float = DEFAULT_TOLERANCE, order: int | None = None):
    """Build a backend by name: 'float' or 'cyclotomic' (needs the root order)."""
    if name == "float":
        return ComplexFloatBackend(tolerance=tolerance)
    if name == "cyclotomic":
        if order is None:
            raise ValueError("cyclotomic backend needs the root order")
        return CyclotomicBackend(order)
    raise ValueError(f"unknown backend {name!r} (expected 'float' or 'cyclotomic')")
