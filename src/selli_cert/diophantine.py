"""The fruit Diophantine equation

    a*x^d1 - y^d2 - z^2 + x*y*z - b = 0,      b = 2^d1 * a - 3,

as executable certificates: exhaustive bounded search, the small-modulus
tables the insolubility proof leans on, and a general residue-class
obstruction engine.

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
single q, no x = r (mod gcd(c, q)) is solvable mod q.  Only (Z/q)^3 is
enumerated, once per q, never (Z/M)^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .arith import factorize, primes_upto
from .errors import BudgetExceededError, HypothesisError, ParameterError

__all__ = [
    "DioParams",
    "Mod4Tables",
    "ParityTable",
    "ObstructionCertificate",
    "SweepResult",
    "validate_dio_params",
    "eval_lhs",
    "eval_equation",
    "search_box",
    "bounded_search",
    "mod4_obstruction",
    "parity_claim_check",
    "residue_obstruction",
    "obstruction_sweep",
    "qr_law_check",
]

DEFAULT_MAX_MODULUS = 360

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


def eval_equation(params: DioParams, x: int, y: int, z: int) -> int:
    return eval_lhs(params.a, params.b, params.d1, params.d2, x, y, z)


def search_box(
    a: int,
    b: int,
    d1: int,
    d2: int,
    box: int,
    x_class: tuple[int, int] | None = None,
) -> list[tuple[int, int, int]]:
    """All solutions with |x|, |y|, |z| <= box, sorted lexicographically.

    For fixed (x, y) the equation is monic quadratic in z, so solutions
    come from z = (xy +- sqrt(D))/2 with D = (xy)^2 + 4(a x^d1 - y^d2 - b)
    a perfect square; D = (xy)^2 (mod 4) makes both roots automatically
    integral.  This visits (2*box+1)^2 pairs instead of the cube.
    """
    if box < 1:
        raise ParameterError("box must be >= 1")
    solutions: set[tuple[int, int, int]] = set()
    ys = range(-box, box + 1)
    y_terms = [4 * y**d2 for y in ys]
    for x in range(-box, box + 1):
        if x_class is not None and (x - x_class[0]) % x_class[1] != 0:
            continue
        x_term = 4 * (a * x**d1 - b)
        for y, y_term in zip(ys, y_terms):
            disc = (x * y) ** 2 + x_term - y_term
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


def bounded_search(
    params: DioParams, box: int, x_class: tuple[int, int] | None = None
) -> list[tuple[int, int, int]]:
    return search_box(params.a, params.b, params.d1, params.d2, box, x_class)


@dataclass(frozen=True)
class Mod4Tables:
    """Exhaustive mod-4 evidence for the case-analysis claims.

    Attained sets are reported verbatim from the 16-entry tables; nothing
    is hard-coded, so a divergence between a table and the claim it is
    supposed to support is visible to the caller rather than suppressed.
    """

    squares_attained: tuple[int, ...]
    sum_table: tuple[tuple[int, int, int], ...]  # (y, z, (y^2+z^2) mod 4)
    diff_table: tuple[tuple[int, int, int], ...]  # (y, z, (y^2-z^2) mod 4)
    sum_attained: tuple[int, ...]
    diff_attained: tuple[int, ...]

    @property
    def sum_obstructs_3(self) -> bool:
        return 3 not in self.sum_attained

    @property
    def diff_obstructs_3(self) -> bool:
        return 3 not in self.diff_attained


def mod4_obstruction() -> Mod4Tables:
    sum_table = tuple((y, z, (y * y + z * z) % 4) for y in range(4) for z in range(4))
    diff_table = tuple((y, z, (y * y - z * z) % 4) for y in range(4) for z in range(4))
    return Mod4Tables(
        squares_attained=tuple(sorted({(y * y) % 4 for y in range(4)})),
        sum_table=sum_table,
        diff_table=diff_table,
        sum_attained=tuple(sorted({v for _, _, v in sum_table})),
        diff_attained=tuple(sorted({v for _, _, v in diff_table})),
    )


@dataclass(frozen=True)
class ParityTable:
    """Solutions of y^2 + z^2 + y*z = 0 (mod 2) over (Z/2)^2.

    Even powers y^(2s) agree with y^2 mod 2 for every s >= 1, so the
    quadratic table covers the general claim.
    """

    solutions: tuple[tuple[int, int], ...]

    @property
    def only_origin(self) -> bool:
        return self.solutions == ((0, 0),)


def parity_claim_check() -> ParityTable:
    sols = tuple(
        (y, z)
        for y in range(2)
        for z in range(2)
        if (y * y + z * z + y * z) % 2 == 0
    )
    return ParityTable(solutions=sols)


@dataclass(frozen=True)
class ObstructionCertificate:
    """No (x, y, z) in (Z/modulus)^3 with x = r (mod c) solves the congruence.

    The class is certified empty mod `modulus` through its prime-power
    factors and CRT (see the module docstring).  `tuples_checked` is the
    size of the tuple set proved empty, (modulus / c) * modulus^2, not the
    number of tuples enumerated to prove it.
    """

    params: DioParams
    modulus: int
    x_class: tuple[int, int]  # (residue r, modulus c) with c | modulus
    exhaustive: bool
    tuples_checked: int


def _solvable_flags(a: int, b: int, d1: int, d2: int, modulus: int) -> list[bool]:
    """For each x in Z/M: does some (y, z) in (Z/M)^2 solve the congruence?

    Vectorized over the (y, z) grid; all intermediate products stay below
    M^3, far inside int64 range for M <= a few thousand.
    """
    M = modulus
    ys = np.arange(M, dtype=np.int64)
    pow_d2 = np.ones(M, dtype=np.int64)
    for _ in range(d2):
        pow_d2 = (pow_d2 * ys) % M
    squares = (ys * ys) % M
    base = (pow_d2[:, None] + squares[None, :]) % M  # y^d2 + z^2
    yz = (ys[:, None] * ys[None, :]) % M
    out = []
    for x in range(M):
        rhs = (a * pow(x, d1, M) - b) % M
        lhs = (base + (M - x) * yz) % M  # y^d2 + z^2 - x*y*z
        out.append(bool(np.any(lhs == rhs)))
    return out


def _class_obstructed(
    params: DioParams,
    modulus: int,
    x_class: tuple[int, int],
    cache: dict[int, list[bool]],
) -> bool:
    """Is no x = r (mod c) solvable mod `modulus`?  Requires c | modulus.

    By CRT the class is empty mod M exactly when some prime power q || M
    leaves no x = r (mod gcd(c, q)) solvable mod q.  `cache` maps q to its
    flags for one parameter set, so a sweep enumerates each q once.
    """
    r, c = x_class
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


def residue_obstruction(
    params: DioParams,
    modulus: int,
    x_class: tuple[int, int],
    *,
    max_modulus: int = DEFAULT_MAX_MODULUS,
) -> ObstructionCertificate | None:
    """Certificate that no solution mod `modulus` has x in the class, or
    None when some tuple solves the congruence (no obstruction there)."""
    r, c = x_class
    if modulus < 1:
        raise ParameterError("modulus must be >= 1")
    if c < 1 or modulus % c != 0:
        raise ParameterError(f"class modulus {c} must divide {modulus}")
    if modulus > max_modulus:
        raise BudgetExceededError(
            f"modulus {modulus} exceeds enumeration budget {max_modulus}"
        )
    if not _class_obstructed(params, modulus, x_class, {}):
        return None
    return ObstructionCertificate(
        params=params,
        modulus=modulus,
        x_class=(r % c, c),
        exhaustive=True,
        tuples_checked=(modulus // c) * modulus * modulus,
    )


@dataclass(frozen=True)
class SweepResult:
    modulus_bound: int
    smallest_modulus: tuple[int | None, ...]  # index r = 0..11
    certificates: tuple[ObstructionCertificate | None, ...]


def obstruction_sweep(params: DioParams, modulus_bound: int) -> SweepResult:
    """Per residue class r mod 12, the smallest certifying modulus.

    Moduli run over multiples of 12 up to the bound, ascending, so the
    reported modulus is minimal among them; classes with no certificate in
    range get None.  Deterministic by construction (fixed iteration order,
    exhaustive per-prime-power evidence shared across moduli).
    """
    best: list[int | None] = [None] * 12
    certs: list[ObstructionCertificate | None] = [None] * 12
    cache: dict[int, list[bool]] = {}
    for modulus in range(12, modulus_bound + 1, 12):
        pending = [r for r in range(12) if best[r] is None]
        if not pending:
            break
        for r in pending:
            if _class_obstructed(params, modulus, (r, 12), cache):
                best[r] = modulus
                certs[r] = ObstructionCertificate(
                    params=params,
                    modulus=modulus,
                    x_class=(r, 12),
                    exhaustive=True,
                    tuples_checked=(modulus // 12) * modulus * modulus,
                )
    return SweepResult(
        modulus_bound=modulus_bound,
        smallest_modulus=tuple(best),
        certificates=tuple(certs),
    )


def qr_law_check(prime_bound: int) -> bool:
    """For every prime 5 <= p <= bound: legendre(3, p) = 1 iff p = +-1 mod 12."""
    if prime_bound < 5:
        raise ParameterError("prime_bound must be >= 5")
    for p in primes_upto(prime_bound):
        if p < 5:
            continue
        # Euler's criterion; p is a sieved prime, so no primality test is due
        if (pow(3, (p - 1) // 2, p) == 1) != (p % 12 in (1, 11)):
            return False
    return True
