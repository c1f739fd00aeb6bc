"""From point counts to Jacobian orders.

The zeta function of a smooth curve of genus g over F_p has numerator
L(T) = sum c_i T^i of degree 2g; with power sums s_k = p^k + 1 - N_k the
coefficients follow from Newton's identities in exact integer arithmetic,
the upper half is forced by the functional equation c_{2g-i} = p^{g-i} c_i,
and the Jacobian order over F_p is L(1).

Weil-interval check, exactly and without floating point: write
(sqrt(p) + 1)^{2g} = A + B*sqrt(p) with integers A, B obtained from the
recurrence (A, B) <- (A(p+1) + 2Bp, 2A + B(p+1)) starting at (1, 0); by
conjugation (sqrt(p) - 1)^{2g} = A - B*sqrt(p).  Then

    lower bound holds  iff  A <= L(1)  or  (A - L(1))^2 <= B^2 * p
    upper bound holds  iff  L(1) <= A  or  (L(1) - A)^2 <= B^2 * p

since both comparisons square inequalities between nonnegative integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import primes_upto
from .errors import (
    BudgetExceededError,
    NonIntegerCoefficientError,
    ParameterError,
    WeilViolationError,
)
from .family import DEFAULT_BUDGET
from .ffield import (
    CurveEquation,
    CurveEquationModP,
    PointCountTable,
    build_count_table,
    is_smooth_mod_p,
)

__all__ = [
    "GenusSpec",
    "LPolynomial",
    "PrimeOrderRecord",
    "PrimeScan",
    "genus_superelliptic",
    "l_polynomial_from_counts",
    "predict_count",
    "jacobian_order",
    "order_divisibility_filter",
    "coprime_pair",
    "find_certificate_primes",
]

GENUS_FORMULA = "formula-superelliptic"
GENUS_USER = "user-supplied"


@dataclass(frozen=True)
class GenusSpec:
    g: int
    source: str

    def __post_init__(self):
        if self.g < 1:
            raise ParameterError("genus must be >= 1")
        if self.source not in (GENUS_FORMULA, GENUS_USER):
            raise ParameterError(f"unknown genus source {self.source!r}")


def genus_superelliptic(n: int, m: int) -> GenusSpec:
    """Genus of y^n = f(x) with deg f = m and f separable:
    g = ((n-1)(m-1) + 1 - gcd(n, m)) / 2.

    Only valid for pure superelliptic equations; callers must not apply it
    to curves carrying the mixed x*y term.
    """
    if n < 2 or m < 2:
        raise ParameterError("genus formula needs n >= 2 and deg f >= 2")
    num = (n - 1) * (m - 1) + 1 - gcd(n, m)
    if num % 2 != 0:
        raise ParameterError(f"genus formula gives non-integer for (n, m) = ({n}, {m})")
    return GenusSpec(g=num // 2, source=GENUS_FORMULA)


@dataclass(frozen=True)
class LPolynomial:
    p: int
    g: int
    coefficients: tuple[int, ...]  # c_0..c_{2g}, c_0 = 1


def _weil_interval_ab(p: int, g: int) -> tuple[int, int]:
    """(A, B) with (sqrt(p) +- 1)^{2g} = A +- B*sqrt(p)."""
    a, b = 1, 0
    for _ in range(g):
        a, b = a * (p + 1) + 2 * b * p, 2 * a + b * (p + 1)
    return a, b


def _check_weil(p: int, g: int, value: int) -> None:
    a, b = _weil_interval_ab(p, g)
    lower_ok = a <= value or (a - value) ** 2 <= b * b * p
    upper_ok = value <= a or (value - a) ** 2 <= b * b * p
    if value <= 0 or not lower_ok:
        raise WeilViolationError(
            f"L(1) = {value} below Weil lower bound (sqrt({p})-1)^{2*g}", value
        )
    if not upper_ok:
        raise WeilViolationError(
            f"L(1) = {value} above Weil upper bound (sqrt({p})+1)^{2*g}", value
        )


def l_polynomial_from_counts(p: int, genus: GenusSpec, counts: PointCountTable) -> LPolynomial:
    """Reconstruct L(T) from N_1..N_g; loud failure on inconsistent input.

    A Newton division with remainder or a Weil-interval violation signals a
    wrong genus or a wrong infinity count, never a value to round away.
    N_1, N_2, ... are read in order and the first missing k is refused, so
    the work before a refusal is bounded by the table, not by g.
    """
    g = genus.g
    table = dict(counts.entries)
    s = [0]  # power sums s_1..s_g
    for k in range(1, g + 1):
        if k not in table:
            raise ParameterError(f"counts missing for k = {k}")
        s.append(p**k + 1 - table[k])
    c = [0] * (2 * g + 1)
    c[0] = 1
    for k in range(1, g + 1):
        acc = s[k]
        for i in range(1, k):
            acc += c[i] * s[k - i]
        q, r = divmod(-acc, k)
        if r != 0:
            raise NonIntegerCoefficientError(
                f"Newton identity for c_{k} divides {-acc} by {k} with remainder {r}"
            )
        c[k] = q
    for i in range(g):
        c[2 * g - i] = p ** (g - i) * c[i]
    value = sum(c)
    _check_weil(p, g, value)
    return LPolynomial(p=p, g=g, coefficients=tuple(c))


def predict_count(lpoly: LPolynomial, k: int) -> int:
    """N_k implied by L(T), for any k >= 1 (three-field consistency checks)."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    p, c = lpoly.p, lpoly.coefficients
    deg = len(c) - 1
    s: list[int] = [0] * (k + 1)
    for n in range(1, k + 1):
        acc = n * c[n] if n <= deg else 0
        for i in range(1, min(n, deg) + 1):
            if i < n:
                acc += c[i] * s[n - i]
        s[n] = -acc
    return p**k + 1 - s[k]


def jacobian_order(lpoly: LPolynomial) -> int:
    """#Jac(F_p) = L(1), exact."""
    return sum(lpoly.coefficients)


def order_divisibility_filter(n_hypothetical: int, orders) -> bool:
    """True iff n divides every listed order.

    Torsion of order n injects into each good reduction, so any admissible
    n divides gcd(orders); gcd 1 forces n = 1.
    """
    if n_hypothetical < 1:
        raise ParameterError("hypothetical order must be positive")
    orders = list(orders)
    if any(o <= 0 for o in orders):
        raise ParameterError("orders must be positive")
    return all(o % n_hypothetical == 0 for o in orders)


@dataclass(frozen=True)
class PrimeOrderRecord:
    p: int
    status: str  # "ok" | "skipped"
    reason: str | None
    order: int | None
    counts: PointCountTable | None


@dataclass(frozen=True)
class PrimeScan:
    prime_bound: int
    records: tuple[PrimeOrderRecord, ...]
    certificate: tuple[PrimeOrderRecord, PrimeOrderRecord] | None  # two of records


def coprime_pair(records) -> tuple[PrimeOrderRecord, PrimeOrderRecord] | None:
    """The first pair of ok records, in lexicographic (p1, p2) order, whose
    Jacobian orders are coprime, or None.

    Records come in ascending p.  Torsion injects into both good
    reductions, so coprime orders force trivial torsion.  The builder and
    `verify` both take the pair from here.
    """
    usable = [r for r in records if r.status == "ok"]
    for i, r1 in enumerate(usable):
        for r2 in usable[i + 1 :]:
            if gcd(r1.order, r2.order) == 1:
                return r1, r2
    return None


def find_certificate_primes(
    curve: CurveEquation,
    genus: GenusSpec,
    prime_bound: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> PrimeScan:
    """Deterministic scan for two good primes with coprime Jacobian orders.

    Each N_k counts the one point at infinity of the C_{d1,d2} model
    (gcd(d1, d2) = 1 under H1-H2); certificates tag this INFINITY-MODEL.
    Primes failing the characteristic guard or the smoothness test are
    skipped with a recorded reason, as are primes whose smoothness scan or
    count table exceeds the budget, checked in that order.  The table is
    priced for every k = 1..g before any k is counted (`build_count_table`),
    so a prime whose top k is refused costs no counting, and each field's
    tables are built once per process.  The certificate is
    `coprime_pair(records)`, the first pair of ok records with coprime
    orders; exhausting the bound without one is a neutral NOT_FOUND
    outcome (certificate None), not an error.
    """
    records: list[PrimeOrderRecord] = []
    for p in primes_upto(prime_bound):
        reduced = CurveEquationModP.reduce(curve, p)
        reason = None
        try:
            smooth = is_smooth_mod_p(reduced, budget=budget)
            if smooth.smooth:
                counts = build_count_table(curve, p, range(1, genus.g + 1), budget=budget)
            else:
                reason = smooth.reason or "not smooth"
                if smooth.witness is not None:
                    reason += f" at {smooth.witness}"
        except BudgetExceededError as exc:
            reason = str(exc)
        if reason is not None:
            records.append(
                PrimeOrderRecord(p=p, status="skipped", reason=reason, order=None, counts=None)
            )
            continue
        lpoly = l_polynomial_from_counts(p, genus, counts)
        records.append(
            PrimeOrderRecord(
                p=p,
                status="ok",
                reason=None,
                order=jacobian_order(lpoly),
                counts=counts,
            )
        )
    return PrimeScan(prime_bound, tuple(records), coprime_pair(records))
