"""The superelliptic curve family

    y^d2 = a*x^d1 + m*x*y - m^2 - b,    d2 = 2d with d prime,

and its torsion-candidate pipeline: hypothesis validation, the discriminant
profile Delta(f)(y), the finite candidate box for torsion y-coordinates, and
rational-point elimination for each surviving candidate.

In x the defining polynomial is the trinomial f = a*x^d1 + s*y*x - C with
C = m^2 + b, so its discriminant is the two-term polynomial
Delta(f)(y) = lead*y^d1 + const, both coefficients in closed form for every
d1 (Swan 1962); for d1 = 3 it is -4a*s^3*y^3 - 27a^2*C^2.

Two readings of the x-coefficient scale s are implemented.  Under the
`standard` convention s = m, so lead = -4a*m^3 for d1 = 3.  The `paper-ex2`
convention reads the x-coefficient as y alone (s = 1, lead = -4a for
d1 = 3), which reproduces the published worked example for m = 2; neither
reading is asserted as canonical, and certificates record which one was
used plus a comparison block whenever the two diverge.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import check_power_digits, factorize, is_prime
from .errors import BudgetExceededError, HypothesisError, ParameterError
# perfbench/tracing.py patches discriminant on this module.
from .polyring import IntPolynomial, discriminant, rational_roots  # noqa: F401

__all__ = [
    "FamilyParams",
    "DiscriminantProfile",
    "CandidateSet",
    "EliminationRecord",
    "validate_params",
    "discriminant_profile",
    "delta_of_y",
    "y_bound",
    "y_candidates",
    "fixed_delta_candidates",
    "eliminate_points",
]

CONVENTIONS = ("standard", "paper-ex2")

# Structural hypotheses on the family, validated all-at-once.  H6 (the
# assumed integrality property of torsion points on the quotient curve) is
# not checkable and surfaces as an assumption tag instead of a violation.
ASSUMPTION_NL = "NL-property-C1"
ASSUMPTION_INFINITY = "INFINITY-MODEL"
ASSUMPTION_GENUS = "GENUS-USER"

# Why y = 0 is never a candidate; certificates store it as `zero_reason`.
ZERO_REASON = "Delta(f)(0) != 0 and 0^d2 divides only 0"

# The work cap of the y-box and of each point count, unless a caller gives one.
DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class FamilyParams:
    a: int
    m: int
    d1: int
    d2: int
    b: int
    d: int
    b_explicit: bool = False


def _odd_power_of_three_exponent(t: int) -> int | None:
    """Exponent m' if t = 3^m' with m' odd and >= 1, else None."""
    if t < 3:
        return None
    e = 0
    while t % 3 == 0:
        t //= 3
        e += 1
    if t != 1 or e % 2 == 0:
        return None
    return e


def validate_params(
    a: int, m: int, d1: int, d2: int, b_override: int | None = None
) -> FamilyParams:
    """Check every structural hypothesis, reporting all violations at once.

    H1  d1 >= 3, odd, divisible by 3
    H2  d2 = 2d with d prime and gcd(d1, d) = 1
    H3  a == 1 (mod 12)
    H4  b = 2^d1*a - 3, or an explicit override of the form 2^d1*a - 3^m'
        with odd m' >= 1
    H5  discriminant not identically zero: a != 0 and m^2 + b != 0

    Each value must be an integer (`operator.index`); a bool is taken as
    0 or 1, and a float raises TypeError.  A d1 whose 2^d1*a has more
    digits than a certificate can write is refused first
    (`check_power_digits`), before 2^d1 is formed.
    """
    a, m, d1, d2 = map(operator.index, (a, m, d1, d2))
    check_power_digits(f"d1 = {d1}", "2^d1*a", 2, d1, a)
    if b_override is not None:
        b_override = operator.index(b_override)
    violations: list[tuple[str, str]] = []
    if d1 < 3 or d1 % 2 == 0 or d1 % 3 != 0:
        violations.append(("H1", f"d1 = {d1} must be an odd multiple of 3, at least 3"))
    d = d2 // 2
    if d2 < 4 or d2 % 2 != 0 or not is_prime(d):
        violations.append(("H2", f"d2 = {d2} must equal 2d with d prime"))
    elif gcd(d1, d) != 1:
        violations.append(("H2", f"gcd(d1, d) = gcd({d1}, {d}) must be 1"))
    if a % 12 != 1:
        violations.append(("H3", f"a = {a} must be congruent to 1 mod 12"))
    if b_override is None:
        b = 2**d1 * a - 3
    else:
        b = b_override
        exponent = _odd_power_of_three_exponent(2**d1 * a - b)
        if exponent is None:
            violations.append(
                ("H4", f"b = {b} is not of the form 2^{d1}*{a} - 3^m' with odd m'")
            )
    if a == 0 or m * m + b == 0:
        violations.append(("H5", "discriminant vanishes identically (a = 0 or m^2 + b = 0)"))
    if violations:
        raise HypothesisError(violations)
    return FamilyParams(
        a=a, m=m, d1=d1, d2=d2, b=b, d=d, b_explicit=b_override is not None
    )


@dataclass(frozen=True)
class DiscriminantProfile:
    """Delta(f)(y) = lead*y^d1 + const as a polynomial in y."""

    params: FamilyParams
    lead: int  # signed coefficient of y^d1
    const: int  # signed constant term
    y_degree: int  # degree of Delta(f)(y) in y (= d1)

    @property
    def c3(self) -> int | None:
        """lead, named as the cubic's coefficient; certificates carry it for d1 = 3 only."""
        return self.lead if self.y_degree == 3 else None

    @property
    def c0(self) -> int | None:
        """const, named as the cubic's constant; certificates carry it for d1 = 3 only."""
        return self.const if self.y_degree == 3 else None


def _xcoeff_scale(params: FamilyParams, convention: str) -> int:
    """Multiplier s in the x-coefficient s*y of the defining trinomial."""
    if convention == "standard":
        return params.m
    if convention == "paper-ex2":
        return 1
    raise ParameterError(f"unknown convention {convention!r}")


def discriminant_profile(
    params: FamilyParams, convention: str = "standard"
) -> DiscriminantProfile:
    a, m, b, d1 = params.a, params.m, params.b, params.d1
    s = _xcoeff_scale(params, convention)
    c = m * m + b
    if c == 0 or a == 0:
        raise ParameterError("discriminant vanishes identically")
    if d1 < 2:
        raise ParameterError(f"discriminant needs d1 >= 2, found {d1}")
    # a certificate writes |const| = d1^d1 * |a*c|^(d1-1), so it is priced first
    check_power_digits("Delta(f)(y)", "its constant term", a * c, d1 - 1, d1**d1)
    # disc(a*x^n + p*x + q) = (-1)^(n(n-1)/2) * (n^n * q^(n-1) * a^(n-1)
    #                         + (-1)^(n-1) * (n-1)^(n-1) * p^n * a^(n-2))
    # with n = d1, p = s*y and q = -c.
    sign = (-1) ** (d1 * (d1 - 1) // 2)
    return DiscriminantProfile(
        params=params,
        lead=sign * (-1) ** (d1 - 1) * (d1 - 1) ** (d1 - 1) * s**d1 * a ** (d1 - 2),
        const=sign * d1**d1 * (-c) ** (d1 - 1) * a ** (d1 - 1),
        y_degree=d1,
    )


def delta_of_y(profile: DiscriminantProfile, y: int) -> int:
    """Exact Delta(f)(y) = lead*y^d1 + const."""
    return profile.lead * y**profile.y_degree + profile.const


def y_bound(profile: DiscriminantProfile) -> int:
    """Minimal Y with |y|^d2 > |Delta(f)(y)| for every |y| > Y.

    Uses the majorant h(t) = t^d2 - L*t^deg - C with L = |leading|,
    C = |constant| of Delta as a polynomial in y.  Since d2 > deg and
    C > 0, h has exactly one sign change on t > 0; the largest integer t
    with h(t) <= 0 is found by doubling then bisection.

    2^d2 is the smallest boundary.lhs a certificate can write, so d2 is
    refused first when 2^d2 has more decimal digits than Python writes or
    reads (`check_power_digits`).
    """
    d2 = profile.params.d2
    check_power_digits(f"d2 = {d2}", "2^d2", 2, d2)
    if d2 <= 3:
        raise ParameterError("growth bound needs d2 >= 4")
    if d2 <= profile.y_degree:
        raise ParameterError(
            f"growth bound needs d2 > deg_y Delta = {profile.y_degree}"
        )
    lead, const, deg = abs(profile.lead), abs(profile.const), profile.y_degree

    def h(t: int) -> int:
        return t**d2 - lead * t**deg - const

    hi = 1
    while h(hi) <= 0:
        hi *= 2
    lo = hi // 2  # h(lo) <= 0 < h(hi); also handles hi == 1 (lo=0, h(0) = -C <= 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if h(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class CandidateSet:
    y_max: int
    candidates: tuple[dict, ...]  # {"y", "delta", "passes"}, as certificates store them
    surviving: tuple[int, ...]
    boundary_y: int  # witness |y| = y_max + 1
    boundary_lhs: int  # |y|^d2 at the witness
    boundary_rhs: int  # |Delta(f)(y)| at the witness (max over both signs)
    zero_reason: str


def y_candidates(profile: DiscriminantProfile, *, budget: int = DEFAULT_BUDGET) -> CandidateSet:
    """Test y^d2 | Delta(f)(y) for every 0 < |y| <= y_bound.

    y = 0 is excluded with an explicit reason: Delta(f)(0) != 0 while
    0^d2 divides only 0.  Divisibility is on signed values; the sign is
    irrelevant and normalized away.  A box of more than `budget` values
    (2*y_max) is refused before it is enumerated.

    The box is walked in pairs +-y, forming lead*y^d1 once for both:
    Delta(-y) = const - lead*y^d1 for odd d1 (H1).  Since y divides
    lead*y^d1, y^d2 can divide Delta(+-y) only when y divides const, so
    y^d2 is formed only then.  Records come out in ascending y.
    """
    d2 = profile.params.d2
    y_max = y_bound(profile)
    if 2 * y_max > budget:
        raise BudgetExceededError(
            f"candidate box of {2 * y_max} values of y exceeds the budget {budget}"
        )
    lead, const, deg = profile.lead, profile.const, profile.y_degree
    records = [None] * (2 * y_max)  # -y_max..-1 then 1..y_max
    for y in range(1, y_max + 1):
        term = lead * y**deg
        up = const + term
        down = const - term if deg % 2 else up  # Delta(-y)
        if const % y:
            up_passes = down_passes = False
        else:
            power = y**d2
            up_passes, down_passes = up % power == 0, down % power == 0
        records[y_max - y] = {"y": -y, "delta": down, "passes": down_passes}
        records[y_max + y - 1] = {"y": y, "delta": up, "passes": up_passes}
    witness = y_max + 1
    rhs = max(abs(delta_of_y(profile, witness)), abs(delta_of_y(profile, -witness)))
    return CandidateSet(
        y_max=y_max,
        candidates=tuple(records),
        surviving=tuple(r["y"] for r in records if r["passes"]),
        boundary_y=witness,
        boundary_lhs=witness**d2,
        boundary_rhs=rhs,
        zero_reason=ZERO_REASON,
    )


def fixed_delta_candidates(delta: int, d2: int) -> list[int]:
    """All y with y^d2 | delta for a fixed nonzero delta.

    From the factorization of |delta|, each prime may appear in y with
    exponent at most floor(v_p(delta) / d2); candidates are all signed
    products within those caps, sorted ascending.
    """
    if delta == 0:
        raise ParameterError("delta must be nonzero")
    if d2 < 1:
        raise ParameterError("d2 must be positive")
    values = [1]
    for p, e in factorize(delta).items():
        cap = e // d2
        if cap:
            values = [v * p**i for v in values for i in range(cap + 1)]
    return sorted({s * v for v in values for s in (1, -1)})


@dataclass(frozen=True)
class EliminationRecord:
    y0: int
    reduced_cubic: IntPolynomial
    rational_x: tuple[Fraction, ...]
    eliminated: bool


def elimination_polynomial(
    params: FamilyParams, y0: int, convention: str = "standard"
) -> IntPolynomial:
    """Substituting y = y0 into the defining equation gives
    a*x^d1 + (s*y0)*x - (m^2 + b + y0^d2) = 0 with s per convention."""
    s = _xcoeff_scale(params, convention)
    coeffs = [0] * (params.d1 + 1)
    coeffs[0] = -(params.m * params.m + params.b + y0**params.d2)
    coeffs[1] = s * y0
    coeffs[params.d1] = params.a
    return IntPolynomial.from_coefficients(coeffs)


def eliminate_points(
    params: FamilyParams,
    surviving: Iterable[int],
    convention: str = "standard",
) -> list[EliminationRecord]:
    """Search each surviving y0 for rational x with (x, y0) on the curve."""
    out = []
    for y0 in surviving:
        poly = elimination_polynomial(params, y0, convention)
        roots = tuple(rational_roots(poly))
        out.append(
            EliminationRecord(
                y0=y0,
                reduced_cubic=poly,
                rational_x=roots,
                eliminated=not roots,
            )
        )
    return out
