"""Dense integer polynomials with exact resultants, discriminants and
rational roots.

Coefficients are stored in ascending order (index i holds the coefficient
of x^i) and trailing zeros are stripped, so the leading coefficient of a
nonzero polynomial is never zero; the zero polynomial is the empty tuple.

The resultant follows the convention

    Res(f, g) = lc(f)^deg(g) * prod over roots r of f of g(r),

computed exactly as the determinant of the Sylvester matrix by Bareiss
fraction-free elimination (no floating point, no modular reconstruction).

Rational roots are found in two steps, and no coefficient is ever factored.
First a small prime may prove that there are none: a rational root u/v in
lowest terms has v | lc(f), so for a prime p not dividing lc(f) it reduces
to the root u*v^(-1) of f mod p, and f with no root in F_p has no rational
root (the rational root theorem).  Some polynomials have a root mod every
prime, (x^2 - 2)(x^2 - 3)(x^2 - 6) for one (Berend-Bilu 1996), so when no
prime up to 23 is such a witness the roots come from integer bisection on
the monotone pieces of a monic associate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

__all__ = [
    "IntPolynomial",
    "resultant",
    "discriminant",
    "rational_roots",
]


@dataclass(frozen=True)
class IntPolynomial:
    coefficients: tuple[int, ...]  # ascending, no trailing zeros

    @classmethod
    def from_coefficients(cls, coeffs) -> "IntPolynomial":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> int:
        if self.is_zero:
            raise ParameterError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coefficients(
            i * c for i, c in enumerate(self.coefficients) if i > 0
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial.from_coefficients(out)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)})"


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g) = lc(f)^deg(g) * prod g(roots of f), exact."""
    if f.is_zero or g.is_zero:
        raise ParameterError("resultant of the zero polynomial is undefined")
    m, n = f.degree, g.degree
    if m == 0:
        return f.coefficients[0] ** n
    if n == 0:
        return g.coefficients[0] ** m
    fd = list(reversed(f.coefficients))
    gd = list(reversed(g.coefficients))
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + fd + [0] * (size - i - m - 1))
    for i in range(m):
        rows.append([0] * i + gd + [0] * (size - i - n - 1))
    return _bareiss_determinant(rows)


def discriminant(f: IntPolynomial) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f), exact integer."""
    d = f.degree
    if d < 2:
        raise ParameterError("discriminant requires degree >= 2")
    res = resultant(f, f.derivative())
    lead = f.leading_coefficient
    num = (-1) ** (d * (d - 1) // 2) * res
    q, r = divmod(num, lead)
    if r != 0:
        raise AssertionError("discriminant division is always exact")
    return q


def _eval(cs: list[int], t: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


# Primes tried as root-free witnesses before the bisection.  A polynomial
# that has a rational root pays one scan of F_p for each, each stopping at
# its first root, so the list stays short.
_WITNESS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _root_free_witness(cs: tuple[int, ...]) -> int | None:
    """The least p in _WITNESS_PRIMES with p not dividing cs[-1] and no
    root of the polynomial cs (ascending) in F_p, or None."""
    for p in _WITNESS_PRIMES:
        if cs[-1] % p == 0:
            continue
        reduced = [c % p for c in cs]
        if all(_eval(reduced, x) % p for x in range(p)):
            return p
    return None


def _root_floors(h: list[int]) -> list[int]:
    """Sorted integers that include floor(r) for every real root r of h.

    Fujiwara's bound 2*max|h_i/h_n|^(1/(n-i)), rounded up to a power of
    two, holds every root of h and, by Gauss-Lucas, of each derivative.
    Between consecutive root floors of h', h is strictly monotone on the
    integers, so bisection on its sign finds the one root it may have there.
    """
    n = len(h) - 1
    if n < 1:
        return []
    top = abs(h[n]).bit_length() - 1
    bits = max(-((top - abs(c).bit_length()) // (n - i)) for i, c in enumerate(h[:n]))
    bound = 2 << max(bits, 0)
    crit = _root_floors([i * c for i, c in enumerate(h)][1:])
    found = set(crit)
    for lo, hi in zip([-bound] + [c + 1 for c in crit], crit + [bound]):
        s = _eval(h, lo)
        if s * _eval(h, hi) > 0:
            continue
        while hi - lo > 1:  # s*h(lo) >= 0 >= s*h(hi)
            mid = (lo + hi) // 2
            if s * _eval(h, mid) > 0:
                lo = mid
            else:
                hi = mid
        found.add(hi if _eval(h, hi) == 0 else lo)
    return sorted(found)


def rational_roots(f: IntPolynomial) -> list[Fraction]:
    """All rational roots of f, exact, sorted ascending.

    Empty as soon as `_root_free_witness` finds a prime p with no root of
    f mod p; otherwise the t/a, a = lc(f), for the integer roots t of the
    monic g(t) = a^(n-1)*f(t/a), n = deg f.
    """
    if f.is_zero:
        raise ParameterError("every rational is a root of the zero polynomial")
    if _root_free_witness(f.coefficients) is not None:
        return []
    a, n = f.leading_coefficient, f.degree
    g = [c * a ** (n - 1 - i) for i, c in enumerate(f.coefficients[:-1])] + [1]
    return sorted(Fraction(t, a) for t in _root_floors(g) if _eval(g, t) == 0)
