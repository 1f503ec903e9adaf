"""Scalar backends: cyclotomic exact arithmetic against the complex embedding."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitylab import CyclotomicBackend, ComplexFloatBackend, cyclotomic_poly, make_backend
from dualitylab import scalars
from dualitylab.scalars import _poly_mul


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over the rationals; b must be nonzero."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    if db < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(_trim(a)) - 1 >= db and a:
        da = len(a) - 1
        coef = Fraction(a[-1]) / lead  # int / int would be a float
        q[da - db] = coef
        for j, bj in enumerate(b):
            a[da - db + j] -= coef * bj
        _trim(a)
    return q, a


def fraction_reduce(b, poly) -> tuple:
    """The rational reference: the remainder of poly by the modulus, by long division."""
    _, r = _poly_divmod(list(poly), list(b.modulus))
    r = list(r) + [Fraction(0)] * (b.degree - len(r))
    return tuple(r[: b.degree])


def poly(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def test_cyclotomic_poly_small_orders():
    assert cyclotomic_poly(1) == poly(-1, 1)
    assert cyclotomic_poly(2) == poly(1, 1)
    assert cyclotomic_poly(3) == poly(1, 1, 1)
    assert cyclotomic_poly(4) == poly(1, 0, 1)
    assert cyclotomic_poly(6) == poly(1, -1, 1)
    assert cyclotomic_poly(12) == poly(1, 0, -1, 0, 1)
    # prime order: all-ones of length p
    assert cyclotomic_poly(7) == poly(*([1] * 7))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
def test_roots_match_complex_exponentials(n):
    b = CyclotomicBackend(n)
    for k in range(n):
        got = b.to_complex(b.root(k, n))
        want = cmath.exp(2j * cmath.pi * k / n)
        assert abs(got - want) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_all_roots_sum_to_zero(n):
    b = CyclotomicBackend(n)
    acc = b.zero
    for k in range(n):
        acc = b.add(acc, b.root(k, n))
    assert b.is_zero(acc)


def test_embedding_is_multiplicative():
    b = CyclotomicBackend(12)
    samples = [b.root(k, 12) for k in (0, 1, 5, 7)] + [b.from_int(3), b.scale(b.one, Fraction(1, 2))]
    for x in samples:
        for y in samples:
            lhs = b.to_complex(b.mul(x, y))
            rhs = b.to_complex(x) * b.to_complex(y)
            assert abs(lhs - rhs) < 1e-9
            lhs = b.to_complex(b.add(x, y))
            rhs = b.to_complex(x) + b.to_complex(y)
            assert abs(lhs - rhs) < 1e-9


def test_conjugation():
    b = CyclotomicBackend(12)
    for k in range(12):
        assert b.conj(b.root(k, 12)) == b.root(-k, 12)
    x = b.add(b.from_int(2), b.root(1, 12))
    y = b.root(7, 12)
    assert b.conj(b.mul(x, y)) == b.mul(b.conj(x), b.conj(y))
    # conjugating twice is the identity
    assert b.conj(b.conj(x)) == x


def test_subfield_roots():
    b = CyclotomicBackend(12)
    assert b.root(1, 2) == b.from_int(-1)
    assert b.root(1, 4) == b.root(3, 12)
    with pytest.raises(ValueError):
        b.root(1, 5)  # 5 does not divide 12


def test_scale_and_residual():
    b = CyclotomicBackend(4)
    x = b.root(1, 4)
    assert b.scale(x, Fraction(1, 2)) == tuple(c / 2 for c in x)
    assert b.residual(x, x) == 0.0
    assert b.residual(x, b.one) > 0.5


def test_format_readable():
    b = CyclotomicBackend(4)
    assert b.format(b.one) == "1"
    assert b.format(b.zero) == "0"
    assert b.format(b.root(1, 4)) == "z"
    assert b.format(b.root(3, 4)) == "-z"
    assert b.format(b.add(b.one, b.root(1, 4))) == "1+z"


def test_float_backend():
    b = ComplexFloatBackend()
    assert abs(b.root(1, 4) - 1j) < 1e-12
    assert b.eq(b.one, 1.0 + 5e-10j)
    assert not b.eq(b.one, 1.0 + 5e-8j)
    assert b.scale(b.one, Fraction(1, 4)) == 0.25
    with pytest.raises(ValueError):
        ComplexFloatBackend(tolerance=0.0)


def test_make_backend():
    assert make_backend("float").name == "float"
    assert make_backend("cyclotomic", order=6).degree == 2
    with pytest.raises(ValueError):
        make_backend("cyclotomic")  # order required
    with pytest.raises(ValueError):
        make_backend("nosuch")


@pytest.mark.parametrize("n", [*range(1, 61), 105, 210])
def test_monomials_match_polynomial_reduction(n):
    # the incremental z^e table against reducing x^e by long division;
    # Phi_105 has a coefficient -2, and 210 = 2 * 105 keeps it
    b = CyclotomicBackend(n)
    assert len(b._mono) == n
    for e, mono in enumerate(b._mono):
        assert mono == fraction_reduce(b, [Fraction(0)] * e + [Fraction(1)]), (n, e)
        assert all(isinstance(c, int) for c in mono)


ORDERS = [*range(1, 61), 105, 210]
COEFFS = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6))


def int_values(b):
    return st.dictionaries(st.integers(0, b.degree - 1), st.integers(-4, 4), max_size=6).map(
        lambda terms: tuple(terms.get(k, 0) for k in range(b.degree)))


@st.composite
def operands(draw, b):
    """Values as the backends make them: int tuples, and the int/Fraction mixes
    that scale leaves, added to a root of unity or to another scaled value."""
    raw = draw(int_values(b))
    q = draw(COEFFS)
    made = draw(st.sampled_from(["raw", "scale", "scaled-one"]))
    if made == "scaled-one":
        return b.add(b.scale(b.one, q), b.root(draw(st.integers(0, b.n - 1)), b.n))
    if made == "scale":
        # two scales summed: coefficients with different denominators
        return b.add(b.scale(raw, q), b.scale(draw(int_values(b)), draw(COEFFS)))
    return raw


def fraction_mul(b, x, y):
    """The rational reference: multiply as polynomials, reduce by long division."""
    return fraction_reduce(b, _poly_mul([Fraction(c) for c in x], [Fraction(c) for c in y]))


def fraction_conj(b, x):
    """The rational reference: z^k goes to z^((n - k) mod n), then reduce."""
    poly = [Fraction(0)] * b.n
    for k, c in enumerate(x):
        poly[(b.n - k) % b.n] += c
    return fraction_reduce(b, poly)


@pytest.mark.parametrize("n", ORDERS)
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_integer_mul_and_conj_match_fraction_reduction(n, data):
    b = CyclotomicBackend(n)
    x, y = data.draw(operands(b)), data.draw(operands(b))
    assert b.mul(x, y) == fraction_mul(b, x, y)
    assert b.conj(x) == fraction_conj(b, x)


def schoolbook_mul(b, x, y):
    """CyclotomicBackend.mul without its shortcuts for one and for two roots: every product runs
    the schoolbook."""
    if not any(x) or not any(y):
        return b.zero
    out = _poly_mul(x, y)
    for e in range(b.degree, 2 * b.degree - 1):
        if out[e]:
            for k, m in enumerate(b._mono[e % b.n]):
                out[k] += out[e] * m
    return tuple(out[:b.degree])


@pytest.mark.parametrize("n", [1, 2, 12, 15])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_mul_by_one_matches_schoolbook(n, data):
    b = CyclotomicBackend(n)
    x = data.draw(operands(b))
    for one in (b.one, b.scale(b.one, 1)):
        for got, want in ((b.mul(one, x), schoolbook_mul(b, one, x)), (b.mul(x, one), schoolbook_mul(b, x, one))):
            assert got == want and b.format(got) == b.format(want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12, 15, 16, 105])
def test_root_products_and_conjugates_match_the_references(n):
    # two roots multiply by adding exponents; a root scaled by 1 holds Fractions yet hashes and
    # compares like the int root, so the lookup hands back ints, which == and format cannot tell
    # from the schoolbook's Fractions.  The Fraction schoolbook takes about 3 ms a product at
    # order 105, so there the scaled factor runs over four roots, monomial and dense, not all 105
    b = CyclotomicBackend(n)
    roots = [b.root(k, n) for k in range(n)]
    scaled = set(roots if n < 100 else roots[1::26])
    for x in roots:
        assert b.conj(x) == fraction_conj(b, x)
        for y in roots:
            got = b.mul(x, y)
            assert got == schoolbook_mul(b, x, y) and all(isinstance(c, int) for c in got)
            pairs = [(b.scale(x, 1), y)] if x in scaled else []
            pairs += [(x, b.scale(y, 1))] if y in scaled else []
            for xs, ys in pairs:
                got, want = b.mul(xs, ys), schoolbook_mul(b, xs, ys)
                assert got == want and b.format(got) == b.format(want)


def test_integer_values_stay_integer():
    b = CyclotomicBackend(105)
    x = b.add(b.from_int(3), b.root(1, 105))
    for value in (b.zero, b.one, b.from_int(-2), b.mul(x, b.root(104, 105)), b.conj(x)):
        assert all(isinstance(c, int) for c in value)


def test_cyclotomic_poly_matches_fraction_long_division():
    fraction_polys: dict = {}
    for n in range(1, 301):
        poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                poly, r = _poly_divmod(poly, fraction_polys[d])
                assert not _trim(r)
        fraction_polys[n] = tuple(poly)
        assert cyclotomic_poly(n) == fraction_polys[n], n
        assert all(isinstance(c, int) for c in cyclotomic_poly(n))


OPERATIONS = {"from_int", "add", "mul", "conj", "scale", "root", "eq", "is_zero", "to_complex", "residual", "format"}


@pytest.mark.parametrize("cls", [ComplexFloatBackend, CyclotomicBackend])
def test_backends_expose_the_same_ring_operations(cls):
    public = {k for k, v in vars(cls).items() if callable(v) and not k.startswith("_")}
    assert public == OPERATIONS
    # the rational division behind an inverse is gone from the library
    assert not any(hasattr(scalars, k) for k in ("_reduce", "_poly_divmod", "_trim", "_ZERO", "_ONE"))
