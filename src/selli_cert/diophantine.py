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

An obstruction certificate closes a class r of x mod 12 at a modulus M: no
(x, y, z) in (Z/M)^3 with x = r (mod 12) solves the congruence, so no
integer solution lies in the class.  The least such M is lcm(12, q) for
the first prime power q that empties the class (see `obstruction_sweep`).
Each q asks the search's own question one row x at a time: is D =
(xy)^2 + 4(a*x^d1 - y^d2 - b) a square mod 4q for some y?  A class that
stays open is settled by its first witness (x, y), usually found within a
few y; only a class that closes reads all its q/gcd(12, q) rows of q cells.

What depends on no member is built once per process and never mutated:
the square table of each modulus (`_square_bytes`, at most 336,130 bytes),
the sweep plan of each of the last 16 bounds and the QR-law verdict of each
of the last 8.  Every call still prices its bound first; refusals are not
kept.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

import numpy as np

from .arith import check_power_digits, prime_array, primes_upto
from .errors import BudgetExceededError, HypothesisError, ParameterError

__all__ = [
    "DioParams",
    "SweepResult",
    "validate_dio_params",
    "eval_lhs",
    "bounded_search",
    "obstruction_sweep",
    "sweep_plan",
    "tuples_checked",
    "check_search_box",
    "check_qr_bound",
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

    a, d1, d2 and m' must be integers (`operator.index`), as in
    `family.validate_params`: a bool is taken as 0 or 1, and a float
    raises TypeError.  A d1 whose 2^d1*a, or an m' whose 3^m', has more
    digits than a certificate can write is refused first
    (`check_power_digits`), before that power is formed.
    """
    a, d1, d2 = map(operator.index, (a, d1, d2))
    check_power_digits(f"d1 = {d1}", "2^d1*a", 2, d1, a)
    if m_prime is not None:
        m_prime = operator.index(m_prime)
        check_power_digits(f"m' = {m_prime}", "3^m'", 3, m_prime)
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

# The search costs 6 to 8 ns per (x, y) pair on a 2-core x86 VM at a flat
# 33 MB: box 3,000 takes 0.29 s and box 6,000 takes 0.87 s.  Each pair is
# charged the 64-bit words of box^d1, the size of the exact terms a survivor
# carries, so the work is pairs * words; more than this is refused (at
# d1 = 3, box 7,070 is the largest admitted).
_SEARCH_PAIR_BUDGET = 2 * 10**8


@lru_cache(maxsize=None)
def _square_bytes(m: int) -> bytes:
    """is_square[r]: is r a square mod m?  One byte per residue, built once
    per m and process.  The only keys are 64, `_SIEVE_MODULI` and the 4q
    of admitted sweep plans.  Every admitted plan is a prefix of the plan at
    11,723, the largest bound `_SWEEP_CELL_BUDGET` admits (191 prime powers,
    q <= 2,187), so the cache never holds more than 336,130 bytes."""
    is_square = np.zeros(m, dtype=bool)
    is_square[np.arange(m) ** 2 % m] = True
    return is_square.tobytes()


def _square_table(m: int) -> np.ndarray:
    """`_square_bytes(m)` as a read-only bool array, without a copy."""
    return np.frombuffer(_square_bytes(m), dtype=bool)


def check_search_box(box: int, d1: int) -> None:
    """Refuse a `bounded_search` box below 1, or one whose (2*box + 1)^2
    pairs times the 64-bit words of box^d1 pass `_SEARCH_PAIR_BUDGET`.  The
    words come from d1 * box.bit_length(), so no power is formed."""
    if box < 1:
        raise ParameterError("box must be >= 1")
    pairs = (2 * box + 1) ** 2
    words = max(1, -(-d1 * box.bit_length() // 64))
    if pairs * words > _SEARCH_PAIR_BUDGET:
        raise BudgetExceededError(
            f"search box {box} at d1 = {d1} needs {pairs} (x, y) pairs times {words} "
            f"64-bit word(s) of box^d1 = {pairs * words}; the budget is {_SEARCH_PAIR_BUDGET}"
        )


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

    For even d2, no y with 4*y^d2 >= 2^reach is searched, where 2^reach
    exceeds box^4 + 4|a|*box^d1 + 4|b| and so (xy)^2 + 4(a x^d1 - b) at
    every x of the box: D < 0 there.  As |y| >= 2^k gives y^d2 >= 2^(d2*k),
    the search stops below the least such power of 2, found from bit
    lengths alone; every y^d2 it forms is below 4^reach, so it costs
    O(pairs) at any d2.  The box is priced by its pairs and the size of
    box^d1 (`check_search_box`) before anything is computed.
    """
    check_search_box(box, params.d1)
    a, b, d1, d2 = params.a, params.b, params.d1, params.d2
    y_max = box
    if d2 >= 2 and d2 % 2 == 0:
        reach = (box**4 + 4 * abs(a) * box**d1 + 4 * abs(b)).bit_length()
        k = max(0, -(-(reach - 2) // d2))  # 4*2^(d2*k) >= 2^reach
        if k <= box.bit_length():
            y_max = min(box, (1 << k) - 1)
    xs = list(range(-box, box + 1))
    ys = list(range(-y_max, y_max + 1))
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


def _has_witness(params: DioParams, q: int, x: int, is_square: bytes) -> bool:
    """Does some (y, z) in (Z/q)^2 solve the congruence at row x?  y by y,
    stopping at the first witness; is_square is `_square_bytes(4 * q)`.

    The congruence reads z^2 - s*z = c (mod q) with s = x*y and
    c = a*x^d1 - b - y^d2.  Multiplied by 4 it is (2z - s)^2 = s^2 + 4c
    (mod 4q), so a solution z makes D = s^2 + 4c a square mod 4q.
    Conversely any w with w^2 = D (mod 4q) has w^2 = s^2 (mod 4), so
    w = s (mod 2) and z = (w + s)/2 is an integer solving it.  This holds
    for every q, powers of 2 included, and for any representatives s and c.
    """
    c = (params.a * pow(x, params.d1, q) - params.b) % q
    d2, m = params.d2, 4 * q
    return any(
        is_square[((x * y % q) ** 2 + 4 * (c - pow(y, d2, q))) % m] for y in range(q)
    )


@dataclass(frozen=True)
class SweepResult:
    modulus_bound: int
    smallest_modulus: tuple[int | None, ...]  # index r = 0..11


def tuples_checked(modulus: int | None) -> int | None:
    """Size of the tuple set proved empty for a class r mod 12 closed at
    `modulus`: (modulus / 12) x-values times modulus^2 (y, z), not the
    number of tuples enumerated to prove it.  None for an open class."""
    return None if modulus is None else (modulus // 12) * modulus * modulus


# The sweep is priced at its worst case, all q rows of q cells for every
# prime power q it reads: modulus bound 360 costs 1.6e4 cells, 11,520 costs
# 5.6e7.  A plan priced above this is refused.  `_has_witness` reads a row
# with no witness at 390-480 ns a cell on a 2-core x86 VM (q = 1,024), so a
# plan at the budget could take about 25 s.  Only a closing class reads
# every row, though, and a class that stays open stops at its first
# witness, usually within a few y.  Once its square tables are built
# (`_square_bytes`), (13, 3, 10) sweeps bound 360 in 0.09 ms, 1,200 in
# 0.17 ms, 4,000 in 0.38 ms and 11,520 in 0.8 ms; a process's first sweep
# to 4,000 builds them too and takes 2.0-2.4 ms, to 11,520 5.7-6.7 ms.
_SWEEP_CELL_BUDGET = 6 * 10**7


def sweep_plan(modulus_bound: int) -> list[tuple[int, int]]:
    """(lcm(12, q), q), ascending, for the prime powers q = 4, 8, ...;
    3, 9, ...; p, p^2, ... (p >= 5) with lcm(12, q) <= modulus_bound.

    Priced at the sum of q^2 and refused above `_SWEEP_CELL_BUDGET` before
    any row is read.  Past 12 * sqrt(budget) the power of 2 in the plan
    alone passes the budget, so no prime beyond that is sieved.  An
    admitted plan is built once per bound and process (`_plan`); each call
    returns a fresh list, and a refusal is raised again on every call.
    """
    return list(_plan(operator.index(modulus_bound)))


@lru_cache(maxsize=16)
def _plan(modulus_bound: int) -> tuple[tuple[int, int], ...]:
    plan = []
    for p in primes_upto(max(3, min(modulus_bound // 12, isqrt(_SWEEP_CELL_BUDGET)))):
        q = 4 if p == 2 else p
        while (modulus := 12 * q // gcd(12, q)) <= modulus_bound:
            plan.append((modulus, q))
            q *= p
    cells = sum(q * q for _, q in plan)
    if cells > _SWEEP_CELL_BUDGET:
        raise BudgetExceededError(
            f"obstruction sweep to modulus {modulus_bound} needs at least {cells} "
            f"table cells; the budget is {_SWEEP_CELL_BUDGET}"
        )
    return tuple(sorted(plan))


def obstruction_sweep(params: DioParams, modulus_bound: int) -> SweepResult:
    """Per class r mod 12, the least multiple M of 12 up to the bound
    modulo which no x = r (mod 12) is solvable, or None.

    One pass over `sweep_plan`: while a class is pending, each pending r
    with no solvable x = r (mod gcd(12, q)) closes at lcm(12, q).  Classes
    with the same residue s = r mod gcd(12, q) share one answer, decided
    row by row over x = s, s + gcd(12, q), ... by `_has_witness`: the first
    row with a witness y keeps the class open, so only a class that closes
    reads all of its rows.  The closing modulus is the least M:
    - a solution mod p^(e+1) reduces to one mod p^e, so a class emptied by
      p^e stays empty for every higher power of p;
    - by CRT, a class is empty mod M (12 | M) iff some q || M empties it;
    - q || lcm(12, q) for each q in the plan, and q || M gives
      lcm(12, q) | M, so the least such M is the minimum of lcm(12, q)
      over the prime powers q that empty the class.
    """
    best: list[int | None] = [None] * 12
    for modulus, q in sweep_plan(modulus_bound):
        pending = [r for r in range(12) if best[r] is None]
        if not pending:
            break
        step = gcd(12, q)
        is_square = _square_bytes(4 * q)
        solvable = {
            s: any(_has_witness(params, q, x, is_square) for x in range(s, q, step))
            for s in {r % step for r in pending}
        }
        for r in pending:
            if not solvable[r % step]:
                best[r] = modulus
    return SweepResult(modulus_bound=modulus_bound, smallest_modulus=tuple(best))


# qr_law_check's sieve takes one byte per integer up to its bound and its
# prime arrays about 8 bytes per prime: a 21 MB tracemalloc peak at 10^7,
# about 0.1 GB at this cap.  The cap also keeps every value of the Euler
# ladder, below 3p^2, under 2^63 (1753413056 is the largest p with
# 3p^2 < 2^63).
_QR_SIEVE_BOUND = 5 * 10**7


def check_qr_bound(prime_bound: int) -> None:
    """Refuse a `qr_law_check` bound below 5 or past `_QR_SIEVE_BOUND`."""
    if prime_bound < 5:
        raise ParameterError("prime_bound must be >= 5")
    if prime_bound > _QR_SIEVE_BOUND:
        raise BudgetExceededError(f"qr bound {prime_bound} exceeds the cap {_QR_SIEVE_BOUND}")


def _euler_ladder(p: np.ndarray) -> np.ndarray:
    """3^((p - 1)/2) mod p for each p, left to right over the exponent bits:
    square, multiply by 3 where the bit is set, reduce.  Every value stays
    below 3p^2.  Each bit row is built inside the loop, so the work memory
    is a few arrays the size of p."""
    exponent = p >> 1
    power = np.ones_like(p)
    for shift in reversed(range(int(exponent.max(initial=0)).bit_length())):
        power *= power
        power *= 1 + 2 * (exponent >> shift & 1)
        power %= p
    return power


def qr_law_check(prime_bound: int) -> bool:
    """For every prime 5 <= p <= bound: legendre(3, p) = 1 iff p = +-1 mod 12.

    Euler's criterion, 3^((p-1)/2) mod p (`_euler_ladder`), for all sieved
    primes at once (they are prime, so no primality test is due).  The
    bound is checked (`check_qr_bound`) on every call, before anything is
    allocated.  The sieve and the ladder depend on the bound alone, so they
    run once per bound and process: the verdict, one bool, is kept for the
    last 8 bounds (`_qr_law_holds`).  A refusal is never kept.
    """
    check_qr_bound(prime_bound)
    return _qr_law_holds(operator.index(prime_bound))


@lru_cache(maxsize=8)
def _qr_law_holds(prime_bound: int) -> bool:
    p = prime_array(prime_bound)[2:]
    return bool(np.array_equal(_euler_ladder(p) == 1, (p % 12 == 1) | (p % 12 == 11)))
