from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selli_cert.errors import ParameterError
from selli_cert.polyring import (
    _WITNESS_PRIMES,
    IntPolynomial,
    _root_free_witness,
    discriminant,
    rational_roots,
    resultant,
)

small_poly = st.builds(
    IntPolynomial.from_coefficients,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
)


def P(*coeffs):
    """Ascending-coefficient constructor shorthand for tests."""
    return IntPolynomial.from_coefficients(list(coeffs))


def test_construction_strips_trailing_zeros():
    assert P(1, 2, 0, 0).coefficients == (1, 2)
    assert P(0).degree == -1
    assert P(0).is_zero
    assert P(5).degree == 0


def test_arithmetic():
    f = P(1, 1)  # x + 1
    g = P(-1, 1)  # x - 1
    assert (f * g).coefficients == (-1, 0, 1)


def test_derivative():
    assert P(7, 0, 0, 5).derivative().coefficients == (0, 0, 15)
    assert P(3).derivative().is_zero


def test_resultant_known():
    # res(x^2 - 1, x - 2) = (2^2 - 1) = 3 via evaluation at the root of g
    f = P(-1, 0, 1)
    g = P(-2, 1)
    assert resultant(f, g) == 3
    assert resultant(g, f) == 3


def test_resultant_common_root_vanishes():
    f = P(-1, 0, 1)  # (x-1)(x+1)
    g = P(-1, 1)  # x - 1
    assert resultant(f, g) == 0


def test_resultant_of_constants():
    assert resultant(P(3), P(5, 1)) == 3
    assert resultant(P(5, 1), P(3)) == 3
    assert resultant(P(2), P(3)) == 1


@settings(max_examples=80)
@given(small_poly, small_poly)
def test_resultant_swap_sign(f, g):
    if f.is_zero or g.is_zero:
        return
    m, n = f.degree, g.degree
    assert resultant(g, f) == (-1) ** (m * n) * resultant(f, g)


def test_quintic_discriminant_closed_form():
    # x^5 + px + q has discriminant 256 p^5 + 3125 q^4
    f = P(1, -1, 0, 0, 0, 1)  # x^5 - x + 1
    assert discriminant(f) == 256 * (-1) ** 5 + 3125 * 1**4
    assert discriminant(f) == 2869


def test_discriminant_repeated_root_vanishes():
    f = P(1, 2, 1)  # (x+1)^2
    assert discriminant(f) == 0
    g = P(0, 0, 1) * P(-1, 1)  # x^2 (x-1)
    assert discriminant(g) == 0


def _gcd_nonconstant(f, g):
    # Fraction-coefficient Euclid, used only as a test-side oracle
    def to_frac(p):
        return [Fraction(c) for c in p.coefficients]

    def deg(cs):
        d = len(cs) - 1
        while d >= 0 and cs[d] == 0:
            d -= 1
        return d

    def rem(a, b):
        a = a[:]
        db, da = deg(b), deg(a)
        while da >= db and da >= 0:
            q = a[da] / b[db]
            for i in range(db + 1):
                a[da - db + i] -= q * b[i]
            da = deg(a)
        return a

    a, b = to_frac(f), to_frac(g)
    while deg(b) > 0:
        a, b = b, rem(a, b)
    if deg(b) == 0 and b[deg(b)] != 0:
        return False
    return deg(a) > 0


@settings(max_examples=80)
@given(small_poly)
def test_discriminant_zero_iff_repeated_root(f):
    if f.degree < 2:
        return
    assert (discriminant(f) == 0) == _gcd_nonconstant(f, f.derivative())


def test_rational_roots_known():
    assert rational_roots(P(-103, 1, 0, 13)) == []
    assert rational_roots(P(-103, -1, 0, 13)) == []
    assert rational_roots(P(-202, 1, 0, 25)) == [Fraction(2)]
    assert rational_roots(P(-202, -1, 0, 25)) == []
    assert rational_roots(P(-202, 2, 0, 25)) == []
    assert rational_roots(P(-202, -2, 0, 25)) == []
    assert rational_roots(P(-295, 1, 0, 37)) == []
    assert rational_roots(P(-295, -1, 0, 37)) == []


def test_rational_roots_planted():
    assert rational_roots(P(-8, 0, 0, 1)) == [Fraction(2)]  # x^3 - 8
    assert rational_roots(P(-1, 0, 2)) == []  # 2x^2 - 1 is irrational
    f = P(6, 5, 1)  # (x+2)(x+3)
    assert rational_roots(f) == [Fraction(-3), Fraction(-2)]
    g = P(0, -2, 0, 4)  # 2x(2x^2 - 1): root only at 0
    assert rational_roots(g) == [Fraction(0)]
    h = P(-1, 0, 4)  # (2x-1)(2x+1)
    assert rational_roots(h) == [Fraction(-1, 2), Fraction(1, 2)]


def test_rational_roots_zero_poly_rejected():
    with pytest.raises(ParameterError):
        rational_roots(P(0))


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=1, max_value=6),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_rational_roots_finds_planted_roots(pairs):
    # product of (q x - p) factors has exactly the planted p/q roots
    f = P(1)
    expected = set()
    for p, q in pairs:
        f = f * P(-p, q)
        expected.add(Fraction(p, q))
    found = rational_roots(f)
    assert found == sorted(expected)
    for r in found:
        assert sum(c * r**i for i, c in enumerate(f.coefficients)) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 9, 15, 21]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.integers(min_value=-10**6, max_value=10**6),
    st.data(),
)
def test_rational_roots_trinomial_planted_root(n, v, w, c, data):
    # a*x^n + c*v*x - K has the root u/v when a = w*v^n and K = w*u^n + c*u;
    # |u| <= 10^(50/n) keeps |K| below 10^50
    u_max = 10 ** (50 // n)
    u = data.draw(st.integers(-u_max, u_max).filter(lambda u: gcd(u, v) == 1))
    f = P(-(w * u**n + c * u), c * v, *[0] * (n - 2), w * v**n)
    found = rational_roots(f)
    assert Fraction(u, v) in found
    assert found == sorted(set(found))
    for r in found:
        assert sum(k * r**i for i, k in enumerate(f.coefficients)) == 0


def test_rational_roots_keep_the_derivatives_root_floors():
    # (x+4)(x+5)(x+6)(x^3 + 4x^2 - 5x + 10): a finder that dropped the root
    # floors of f', f'', ... from the floors it returns misses all three roots
    f = P(1200, 140, 260, 351, 129, 19, 1)
    assert rational_roots(f) == [Fraction(-6), Fraction(-5), Fraction(-4)]


def _naive_rational_roots(f):
    # rational root theorem: p | (lowest nonzero coefficient), q | lc(f)
    cs = f.coefficients
    low = next(c for c in cs if c)
    ps = [p for p in range(1, abs(low) + 1) if low % p == 0]
    qs = [q for q in range(1, abs(cs[-1]) + 1) if cs[-1] % q == 0]
    cands = {Fraction(s * p, q) for p in ps for q in qs for s in (1, -1)}
    if cs[0] == 0:
        cands.add(Fraction(0))
    return sorted(r for r in cands if sum(c * r**i for i, c in enumerate(cs)) == 0)


@settings(max_examples=150)
@given(small_poly)
def test_rational_roots_match_the_rational_root_theorem(f):
    if f.is_zero:
        return
    assert rational_roots(f) == _naive_rational_roots(f)


@settings(max_examples=150)
@given(small_poly)
def test_witness_prime_is_the_least_root_free_reduction(f):
    # brute force over F_p: the witness is the first prime not dividing
    # lc(f) at which f has no root, and the root finder then answers []
    if f.is_zero:
        return
    cs = f.coefficients

    def root_free_mod(p):
        return all(sum(c * x**i for i, c in enumerate(cs)) % p for x in range(p))

    usable = [p for p in _WITNESS_PRIMES if cs[-1] % p and root_free_mod(p)]
    witness = _root_free_witness(cs)
    assert witness == (usable[0] if usable else None)
    if witness is not None:
        assert rational_roots(f) == []


@settings(max_examples=60)
@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
    small_poly.filter(lambda g: not g.is_zero),
)
def test_planted_rational_root_has_no_witness(u, v, g):
    # u/v is a root of (v x - u) * g, and reduces to a root mod every p
    # that does not divide v, so no prime can witness "no rational root"
    f = P(-u, v) * g
    assert _root_free_witness(f.coefficients) is None
    assert Fraction(u, v) in rational_roots(f)


PRIMORIAL_23 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23


@pytest.mark.parametrize(
    "f, roots",
    [
        # every witness prime divides the leading coefficient
        (P(-1, 0, PRIMORIAL_23), []),
        (P(-1, PRIMORIAL_23) * P(-2, 1), [Fraction(1, PRIMORIAL_23), Fraction(2)]),
        # a root mod every prime and no rational root (Berend-Bilu)
        (P(-2, 0, 1) * P(-3, 0, 1) * P(-6, 0, 1), []),
        (P(-2, 0, 1) * P(-3, 0, 1) * P(-6, 0, 1) * P(5, 3), [Fraction(-5, 3)]),
    ],
)
def test_no_witness_falls_back_to_the_exact_search(f, roots):
    assert _root_free_witness(f.coefficients) is None
    assert rational_roots(f) == roots
