"""The fruit Diophantine equation

    a*x^d1 - y^d2 - z^2 + x*y*z - b = 0,      b = 2^d1 * a - 3,

as executable certificates: exhaustive bounded search, the
quadratic-residue law for 3 the insolubility proof leans on, and a sweep
that finds, for each class of x mod 12, the smallest multiple of 12 modulo
which it is empty.  The proof's small-modulus tables (mod 4 and the parity
table) are tabulated in `certificates.replication_evidence`.

The bounded search solves for z by the quadratic formula, so it visits
(x, y) pairs; a square sieve on the discriminant (modulo 64 and a few small
moduli) discards almost every pair with numpy before the exact isqrt test.

An obstruction certificate is a modulus M and an x-class (r, c) with c | M
such that no (x, y, z) in (Z/M)^3 with x = r (mod c) satisfies the
congruence; any integer solution with x = r (mod c) would reduce to one,
so the class is proved empty.  The engine certifies per class because the
underlying case analysis varies its modulus case by case; no single
uniform modulus is expected to exist.

The class is certified empty through the prime-power factors q = p^e || M
and CRT.  For fixed x, the congruence is solvable mod M exactly when it is
solvable mod every q, and the x-class is the product over q of the classes
x = r (mod gcd(c, q)).  So the class is empty mod M exactly when, for some
single q, no x = r (mod gcd(c, q)) is solvable mod q.  Each q is settled
once by the search's own question: is the discriminant
D = (xy)^2 + 4(a*x^d1 - y^d2 - b) a square, here modulo 4q, for some y?
That is O(q^2) steps (see `_solvable_flags`); (Z/M)^3 is never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

import numpy as np

from .arith import factorize, primes_upto
from .errors import BudgetExceededError, HypothesisError, ParameterError

__all__ = [
    "DioParams",
    "SweepResult",
    "validate_dio_params",
    "eval_lhs",
    "bounded_search",
    "obstruction_sweep",
    "tuples_checked",
    "qr_law_check",
]

B_MODES = ("standard", "corollary1")


@dataclass(frozen=True)
class DioParams:
    a: int
    b: int
    d1: int
    d2: int
    b_mode: str = "standard"
    m_prime: int | None = None


def validate_dio_params(
    a: int, d1: int, d2: int, b_mode: str = "standard", m_prime: int | None = None
) -> DioParams:
    """Check the equation's structural hypotheses, all violations at once.

    D1  a == 1 (mod 12)
    D2  d1 >= 3 and 3 | d1
    D3  d2 >= 2 and even
    D4  gcd(d1, d2) = 1
    D5  b_mode consistency: corollary1 needs odd m' >= 1, standard needs none
    """
    if b_mode not in B_MODES:
        raise ParameterError(f"b_mode must be one of {B_MODES}")
    violations: list[tuple[str, str]] = []
    if a % 12 != 1:
        violations.append(("D1", f"a = {a} must be congruent to 1 mod 12"))
    if d1 < 3 or d1 % 3 != 0:
        violations.append(("D2", f"d1 = {d1} must be a multiple of 3, at least 3"))
    if d2 < 2 or d2 % 2 != 0:
        violations.append(("D3", f"d2 = {d2} must be even and at least 2"))
    elif gcd(d1, d2) != 1:
        violations.append(("D4", f"gcd(d1, d2) = gcd({d1}, {d2}) must be 1"))
    if b_mode == "corollary1":
        if m_prime is None or m_prime < 1 or m_prime % 2 == 0:
            violations.append(("D5", f"corollary1 mode needs odd m' >= 1, got {m_prime}"))
    elif m_prime is not None:
        violations.append(("D5", "m' is only meaningful in corollary1 mode"))
    if violations:
        raise HypothesisError(violations)
    exponent = 1 if b_mode == "standard" else m_prime
    b = 2**d1 * a - 3**exponent
    return DioParams(a=a, b=b, d1=d1, d2=d2, b_mode=b_mode, m_prime=m_prime)


def eval_lhs(a: int, b: int, d1: int, d2: int, x: int, y: int, z: int) -> int:
    """Exact left-hand side, usable with arbitrary (possibly invalid) b."""
    return a * x**d1 - y**d2 - z * z + x * y * z - b


# The square sieve of bounded_search tests D mod 64 on every (x, y) pair,
# with a mask instead of a division, then D mod each of these on the pairs
# left.  64, 63 and 65 keep 12, 16 and 21 of their residues, the primes p
# keep (p + 1) / 2.  Every modulus is at most 65, so every value the sieve
# computes lies within 64^2 + 64 of zero and fits int16.
_SIEVE_MODULI = (63, 65, 11, 17, 19, 23)

# At most this many (x, y) pairs are sieved at once, so the sieve's arrays
# take O(box) memory, never O(box^2).
_SEARCH_BLOCK_PAIRS = 1 << 15


def _square_table(m: int) -> np.ndarray:
    """is_square[r]: is r a square mod m?"""
    is_square = np.zeros(m, dtype=bool)
    is_square[np.arange(m) ** 2 % m] = True
    return is_square


def bounded_search(params: DioParams, box: int) -> list[tuple[int, int, int]]:
    """All solutions with |x|, |y|, |z| <= box, sorted lexicographically.

    For fixed (x, y) the equation is monic quadratic in z, so solutions
    come from z = (xy +- sqrt(D))/2 with D = (xy)^2 + 4(a x^d1 - y^d2 - b)
    a perfect square; D = (xy)^2 (mod 4) makes both roots automatically
    integral.  This visits (2*box+1)^2 pairs instead of the cube.

    A perfect square is a square modulo every m, so a pair whose D is not
    a square mod 64 or mod one of `_SIEVE_MODULI` has no solution and is
    dropped (Cohen, Alg. 1.7.3).  The sieve only ever drops such pairs;
    every survivor still goes through the exact isqrt check.  The sieve
    reduces x, y and both big terms mod m before it multiplies, so its
    int16 values stay below 2^15 at any box, and it runs over blocks of at
    most `_SEARCH_BLOCK_PAIRS` pairs, so its memory is O(box).
    """
    if box < 1:
        raise ParameterError("box must be >= 1")
    a, b, d1, d2 = params.a, params.b, params.d1, params.d2
    xs = ys = list(range(-box, box + 1))
    x_terms = [4 * (a * x**d1 - b) for x in xs]
    y_terms = [4 * y**d2 for y in ys]
    # one reduction of each big term mod the product of all the moduli
    # (below 2^35), then numpy reduces that mod each modulus
    lcm = 64 * prod(_SIEVE_MODULI)
    columns = [
        np.array(xs, dtype=np.int64),
        np.array([t % lcm for t in x_terms], dtype=np.int64),
        np.array(ys, dtype=np.int64),
        np.array([t % lcm for t in y_terms], dtype=np.int64),
    ]
    x64, x_term64, y64, y_term64 = ((c & 63).astype(np.int16) for c in columns)
    square64 = _square_table(64)
    sieve = [
        (m, _square_table(m), *((c % m).astype(np.int16) for c in columns))
        for m in _SIEVE_MODULI
    ]
    solutions: set[tuple[int, int, int]] = set()
    rows = max(1, _SEARCH_BLOCK_PAIRS // len(ys))
    for start in range(0, len(xs), rows):
        block = slice(start, start + rows)
        xy = x64[block, None] * y64 & 63
        disc64 = xy * xy + x_term64[block, None] - y_term64 & 63
        i, j = np.divmod(np.flatnonzero(square64.take(disc64)), len(ys))
        i += start
        for m, is_square, x_res, x_term_res, y_res, y_term_res in sieve:
            xy = x_res[i] * y_res[j] % m
            keep = is_square[(xy * xy + x_term_res[i] - y_term_res[j]) % m]
            i, j = i[keep], j[keep]
        for row, col in zip(i.tolist(), j.tolist()):
            x, y = xs[row], ys[col]
            disc = (x * y) ** 2 + x_terms[row] - y_terms[col]
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            for signed in (root, -root):
                num = x * y + signed
                assert num % 2 == 0  # perfect-square D matches xy's parity
                z = num // 2
                if abs(z) <= box:
                    assert eval_lhs(a, b, d1, d2, x, y, z) == 0
                    solutions.add((x, y, z))
    return sorted(solutions)


def _solvable_flags(a: int, b: int, d1: int, d2: int, modulus: int) -> list[bool]:
    """For each x in Z/q: does some (y, z) in (Z/q)^2 solve the congruence?

    The congruence reads z^2 - s*z = c (mod q) with s = x*y and
    c = a*x^d1 - b - y^d2.  Multiplied by 4 it is (2z - s)^2 = s^2 + 4c
    (mod 4q), so a solution z makes D = s^2 + 4c a square mod 4q.
    Conversely any w with w^2 = D (mod 4q) has w^2 = s^2 (mod 4), so
    w = s (mod 2) and z = (w + s)/2 is an integer solving it.  This holds
    for every q, powers of 2 included, and for any representatives s and c.
    So one q x q grid over (x, y) of D mod 4q, read through the square
    table mod 4q, answers for every x in O(q^2) steps.  All int64 values
    stay below 5q^2.
    """
    q = modulus
    v = np.arange(q, dtype=np.int64)
    y_pow = np.array([pow(y, d2, q) for y in range(q)], dtype=np.int64)
    x_rhs = np.array([(a * pow(x, d1, q) - b) % q for x in range(q)], dtype=np.int64)
    disc = v[:, None] * v % q  # s = x*y, rows x, columns y
    disc *= disc
    c = x_rhs[:, None] - y_pow
    c %= q
    c *= 4
    disc += c
    disc %= 4 * q
    return _square_table(4 * q)[disc].any(axis=1).tolist()


def _class_obstructed(
    params: DioParams,
    modulus: int,
    residue_class: tuple[int, int],
    cache: dict[int, list[bool]],
) -> bool:
    """Is no x = r (mod c) solvable mod `modulus`?  Requires c | modulus.

    By CRT the class is empty mod M exactly when some prime power q || M
    leaves no x = r (mod gcd(c, q)) solvable mod q, that is, no such x
    and y make the discriminant of the quadratic in z a square mod 4q.
    `cache` maps q to its flags for one parameter set, so a sweep builds
    each q's table once.
    """
    r, c = residue_class
    for p, e in factorize(modulus).items():
        q = p**e
        flags = cache.get(q)
        if flags is None:
            flags = cache[q] = _solvable_flags(
                params.a, params.b, params.d1, params.d2, q
            )
        step = gcd(c, q)
        if not any(flags[r % step :: step]):
            return True
    return False


@dataclass(frozen=True)
class SweepResult:
    modulus_bound: int
    smallest_modulus: tuple[int | None, ...]  # index r = 0..11


def tuples_checked(modulus: int | None) -> int | None:
    """Size of the tuple set proved empty for a class r mod 12 closed at
    `modulus`: (modulus / 12) x-values times modulus^2 (y, z), not the
    number of tuples enumerated to prove it.  None for an open class."""
    return None if modulus is None else (modulus // 12) * modulus * modulus


def obstruction_sweep(params: DioParams, modulus_bound: int) -> SweepResult:
    """Per residue class r mod 12, the smallest certifying modulus.

    Moduli run over multiples of 12 up to the bound, ascending, so the
    reported modulus is minimal among them; classes with no certificate in
    range get None.  Deterministic by construction (fixed iteration order,
    exhaustive per-prime-power evidence shared across moduli).
    """
    best: list[int | None] = [None] * 12
    cache: dict[int, list[bool]] = {}
    for modulus in range(12, modulus_bound + 1, 12):
        pending = [r for r in range(12) if best[r] is None]
        if not pending:
            break
        for r in pending:
            if _class_obstructed(params, modulus, (r, 12), cache):
                best[r] = modulus
    return SweepResult(modulus_bound=modulus_bound, smallest_modulus=tuple(best))


# qr_law_check multiplies residues below the bound in int64; 3037000499 is
# the largest n with n^2 < 2^63.
_QR_INT64_BOUND = 3_037_000_500


def qr_law_check(prime_bound: int) -> bool:
    """For every prime 5 <= p <= bound: legendre(3, p) = 1 iff p = +-1 mod 12.

    Euler's criterion, 3^((p-1)/2) mod p, by square-and-multiply over the
    exponent bits for all sieved primes at once (they are prime, so no
    primality test is due).  Every product is of two residues below
    p <= prime_bound, so it stays below 2^63 while prime_bound is below
    `_QR_INT64_BOUND`; larger bounds are refused.
    """
    if prime_bound < 5:
        raise ParameterError("prime_bound must be >= 5")
    if prime_bound >= _QR_INT64_BOUND:
        raise BudgetExceededError(
            f"qr bound {prime_bound} would overflow int64 products; "
            f"the limit is {_QR_INT64_BOUND}"
        )
    p = np.array(primes_upto(prime_bound)[2:], dtype=np.int64)
    exponent = (p - 1) // 2
    power = np.ones_like(p)
    base = 3 % p
    for bit in range(int(exponent[-1]).bit_length()):
        power = np.where(exponent >> bit & 1, power * base % p, power)
        base = base * base % p
    return bool(np.array_equal(power == 1, (p % 12 == 1) | (p % 12 == 11)))
