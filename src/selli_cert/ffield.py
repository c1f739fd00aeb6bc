"""Prime fields, their extensions, and exact point counting for curves

    F(x, y) = y^d2 - m*x*y - f(x) = 0

over F_{p^k}.  This is the performance-critical core.  Every count is exact
and elementary (no Schoof-style shortcuts): without the mixed term it is a
histogram of y^d2 looked up at f(x); with it, a substitution y = lambda*u
per x reduces each fiber to a lookup in one of gcd(d2-1, q-1) histograms
of u^d2 - gamma^j*u, built from discrete-log tables of F_q*.  Both kernels
do O(q) vectorized field operations, and an independent, deliberately
naive oracle is kept in the test suite.

Extension elements are coefficient vectors against a deterministic modulus:
the lexicographically smallest monic irreducible of degree k, where tuples
(c_{k-1}, ..., c_0) are compared most-significant coefficient first.  An
element with coefficients (e_0, ..., e_{k-1}) (ascending) is indexed by
sum e_i * p^i, so index order equals lex order and every enumeration loop
is reproducible.

The count without the mixed term is split over fixed-size x-chunks whose
boundaries depend only on the field size; per-chunk counts are exact
integers summed in chunk order, so results are bitwise identical for any
thread count.  The mixed-term count runs in one thread.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import factorize, is_prime
from .errors import BudgetExceededError, ParameterError
from .parallel import chunk_ranges, map_chunks

__all__ = [
    "PrimeField",
    "ExtField",
    "CurveEquation",
    "CurveEquationModP",
    "PointCountTable",
    "SmoothnessResult",
    "find_irreducible",
    "count_affine",
    "count_points",
    "build_count_table",
    "is_smooth_mod_p",
]

DEFAULT_COUNT_BUDGET = 10**8

_MAX_P = 2**31


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if self.p > _MAX_P:
            raise ParameterError(f"p = {self.p} exceeds the counting-range cap 2^31")
        if not is_prime(self.p):
            raise ParameterError(f"p = {self.p} is not prime")


# ---- polynomial helpers over F_p (ascending coefficient tuples) ----

def _pol_mul_mod(u, v, mod, p):
    k = len(mod) - 1
    res = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                res[i + j] = (res[i + j] + a * b) % p
    for d in range(len(res) - 1, k - 1, -1):
        c = res[d]
        if c:
            res[d] = 0
            for i in range(k):
                res[d - k + i] = (res[d - k + i] - c * mod[i]) % p
    res = res[:k] + [0] * max(0, k - len(res))
    return tuple(res[:k])


def _pol_pow_mod(u, e, mod, p):
    k = len(mod) - 1
    result = tuple([1] + [0] * (k - 1))
    base = tuple(u)
    while e:
        if e & 1:
            result = _pol_mul_mod(result, base, mod, p)
        base = _pol_mul_mod(base, base, mod, p)
        e >>= 1
    return result


def _pol_gcd_degree(f, g, p):
    """Degree of gcd(f, g) over F_p (monic gcd not needed, only its degree)."""

    def deg(h):
        d = len(h) - 1
        while d >= 0 and h[d] % p == 0:
            d -= 1
        return d

    f, g = list(f), list(g)
    while True:
        df, dg = deg(f), deg(g)
        if dg < 0:
            return df
        inv = pow(g[dg] % p, p - 2, p)
        while df >= dg:
            c = f[df] * inv % p
            if c:
                for i in range(dg + 1):
                    f[df - dg + i] = (f[df - dg + i] - c * g[i]) % p
            df = deg(f)
        f, g = g, f


def _is_irreducible(mod, p):
    """gcd(x^{p^i} - x, f) must be constant for every 1 <= i <= k/2."""
    k = len(mod) - 1
    if k == 1:
        return True
    x = tuple([0, 1] + [0] * (k - 2))
    for i in range(1, k // 2 + 1):
        xp = _pol_pow_mod(x, p**i, mod, p)
        h = [(c - (1 if idx == 1 else 0)) % p for idx, c in enumerate(xp)]
        if _pol_gcd_degree(mod, h, p) != 0:
            return False
    return True


@dataclass(frozen=True)
class ExtField:
    base: PrimeField
    k: int
    modulus: tuple[int, ...]  # monic, ascending coefficients, length k+1

    def __post_init__(self):
        p, k = self.base.p, self.k
        if k < 1:
            raise ParameterError("extension degree must be >= 1")
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise ParameterError("modulus must be monic of degree k")
        if any(not 0 <= c < p for c in self.modulus[:-1]):
            raise ParameterError("modulus coefficients must be reduced mod p")
        if not _is_irreducible(self.modulus, p):
            raise ParameterError(f"modulus {self.modulus} is reducible over F_{p}")

    @property
    def q(self) -> int:
        return self.base.p**self.k


def find_irreducible(p: int, k: int) -> ExtField:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1} x^{k-1} + ... + c_0 are scanned in ascending
    lex order of (c_{k-1}, ..., c_0), which coincides with the numeric
    order of sum c_i p^i.
    """
    base = PrimeField(p)
    if k == 1:
        return ExtField(base=base, k=1, modulus=(0, 1))
    for n in range(p**k):
        coeffs = []
        t = n
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        mod = tuple(coeffs) + (1,)
        if _is_irreducible(mod, p):
            return ExtField(base=base, k=k, modulus=mod)
    raise AssertionError("an irreducible polynomial of every degree exists")


# ---- curve equations ----

@dataclass(frozen=True)
class CurveEquation:
    """y^d2 = f(x) + m*x*y over the integers."""

    d2: int
    f_coefficients: tuple[int, ...]  # ascending
    m: int = 0

    def __post_init__(self):
        if self.d2 < 2:
            raise ParameterError("need d2 >= 2")
        if len(self.f_coefficients) < 2 or self.f_coefficients[-1] == 0:
            raise ParameterError("f must be nonconstant with nonzero leading coefficient")

    @property
    def f_degree(self) -> int:
        return len(self.f_coefficients) - 1

    @classmethod
    def from_family(cls, params, convention: str = "standard") -> "CurveEquation":
        from .family import _xcoeff_scale

        coeffs = [0] * (params.d1 + 1)
        coeffs[0] = -(params.m * params.m + params.b)
        coeffs[params.d1] = params.a
        return cls(
            d2=params.d2,
            f_coefficients=tuple(coeffs),
            m=_xcoeff_scale(params, convention),
        )

    @classmethod
    def parse(cls, text: str) -> "CurveEquation":
        """Parse forms like "y^2=x^3+1" or "y^10=13x^3+x*y-102"."""
        s = text.replace(" ", "").replace("−", "-").replace("**", "^")
        if s.count("=") != 1:
            raise ParameterError(f"curve {text!r} must contain exactly one '='")
        lhs, rhs = s.split("=")
        mm = re.fullmatch(r"y\^(\d+)", lhs)
        if not mm:
            raise ParameterError(f"left side {lhs!r} must be y^<d2>")
        d2 = int(mm.group(1))
        if not rhs or rhs[0] not in "+-":
            rhs = "+" + rhs
        coeffs: dict[int, int] = {}
        m = 0
        for term in re.findall(r"[+-][^+-]+", rhs):
            sign = 1 if term[0] == "+" else -1
            body = term[1:]
            t = re.fullmatch(r"(\d+)?\*?x\*?y", body)
            if t:
                m += sign * int(t.group(1) or 1)
                continue
            t = re.fullmatch(r"(\d+)?\*?x(?:\^(\d+))?", body)
            if t:
                e = int(t.group(2) or 1)
                coeffs[e] = coeffs.get(e, 0) + sign * int(t.group(1) or 1)
                continue
            t = re.fullmatch(r"\d+", body)
            if t:
                coeffs[0] = coeffs.get(0, 0) + sign * int(body)
                continue
            raise ParameterError(f"cannot parse term {term!r} in curve {text!r}")
        if not coeffs:
            raise ParameterError(f"curve {text!r} has no f(x) part")
        deg = max(coeffs)
        return cls(
            d2=d2,
            f_coefficients=tuple(coeffs.get(i, 0) for i in range(deg + 1)),
            m=m,
        )


@dataclass(frozen=True)
class CurveEquationModP:
    p: PrimeField
    d2: int
    f_coefficients: tuple[int, ...]  # reduced into [0, p)
    m: int

    @classmethod
    def reduce(cls, curve: CurveEquation, p: int) -> "CurveEquationModP":
        field = PrimeField(p)
        return cls(
            p=field,
            d2=curve.d2,
            f_coefficients=tuple(c % p for c in curve.f_coefficients),
            m=curve.m % p,
        )


@dataclass(frozen=True)
class PointCountTable:
    entries: tuple[tuple[int, int], ...]  # (k, N_k) including infinity
    infinity_count: int


@dataclass(frozen=True)
class SmoothnessResult:
    smooth: bool
    witness: tuple[int, int] | None
    guard_ok: bool
    reason: str | None


# ---- vectorized extension arithmetic on digit matrices ----

def _element_digits(p: int, k: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, k), dtype=np.int64)
    for i in range(k):
        out[:, i] = idx % p
        idx = idx // p
    return out


def _mul_rows(a: np.ndarray, b: np.ndarray, field: ExtField) -> np.ndarray:
    """Row-wise field product of two (n, k) digit matrices."""
    p, k = field.base.p, field.k
    if k == 1:
        return (a * b) % p
    conv = np.zeros((a.shape[0], 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            conv[:, i + j] = (conv[:, i + j] + a[:, i] * b[:, j]) % p
    return _reduce_conv(conv, field)


def _reduce_conv(conv: np.ndarray, field: ExtField) -> np.ndarray:
    """Reduce a (n, 2k-1) convolution against the monic modulus."""
    p, k = field.base.p, field.k
    mod = field.modulus
    for d in range(conv.shape[1] - 1, k - 1, -1):
        c = conv[:, d]
        for i in range(k):
            if mod[i]:
                conv[:, d - k + i] = (conv[:, d - k + i] - c * mod[i]) % p
        conv[:, d] = 0
    return conv[:, :k]


def _pow_rows(a: np.ndarray, e: int, field: ExtField) -> np.ndarray:
    p, k = field.base.p, field.k
    result = np.zeros_like(a)
    result[:, 0] = 1
    base = a % p
    while e:
        if e & 1:
            result = _mul_rows(result, base, field)
        base = _mul_rows(base, base, field)
        e >>= 1
    return result


def _eval_f_rows(x: np.ndarray, coeffs: tuple[int, ...], field: ExtField) -> np.ndarray:
    """Horner evaluation of a base-field-coefficient polynomial at each row."""
    p = field.base.p
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = _mul_rows(acc, x, field)
        acc[:, 0] = (acc[:, 0] + c) % p
    return acc


def _pack(digits: np.ndarray, p: int) -> np.ndarray:
    powers = p ** np.arange(digits.shape[1], dtype=np.int64)
    return digits @ powers


def _primitive_root(field: ExtField) -> np.ndarray:
    """Digits (1, k) of the first element, in index order, generating F_q*.

    An element generates exactly when g^((q-1)/r) != 1 for every prime r
    dividing q - 1; roughly phi(q-1)/(q-1) of all elements pass.
    """
    p, k, q = field.base.p, field.k, field.q
    exponents = [(q - 1) // r for r in factorize(q - 1)]
    one = (1,) + (0,) * (k - 1)
    for idx in range(1, q):
        digits = tuple((idx // p**i) % p for i in range(k))
        if all(_pol_pow_mod(digits, e, field.modulus, p) != one for e in exponents):
            return np.array([digits], dtype=np.int64)
    raise AssertionError("F_q* is cyclic")


def _log_tables(field: ExtField) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log): exp[i] = digits of gamma^i for 0 <= i < q-1, and
    log[index of gamma^i] = i (log[0] is unused).

    exp is built by doubling: rows [n, 2n) are rows [0, n) times gamma^n.
    """
    p, k, q = field.base.p, field.k, field.q
    exp = np.zeros((1, k), dtype=np.int64)
    exp[0, 0] = 1
    step = _primitive_root(field)
    while exp.shape[0] < q - 1:
        shifted = _mul_rows(exp, np.broadcast_to(step, exp.shape), field)
        exp = np.concatenate([exp, shifted])
        step = _mul_rows(step, step, field)
    exp = exp[: q - 1]
    log = np.zeros(q, dtype=np.int64)
    log[_pack(exp, p)] = np.arange(q - 1, dtype=np.int64)
    return exp, log


def _count_mixed(curve: CurveEquationModP, field: ExtField, m: int) -> int:
    """#{(x, y) : y^d2 - m*x*y = f(x)} for m != 0 in O(q) field operations.

    For x = 0 the count is #{y : y^d2 = f(0)}.  For x != 0 put c = m*x,
    l = log c, n = d2 - 1 and g = gcd(n, q - 1); then j = l mod g picks
    the coset of c modulo the n-th powers, and gamma^(l - j) = lambda^n with
    lambda = gamma^t, n*t = l - j (mod q - 1).  Substituting y = lambda*u
    turns y^d2 - c*y = f(x) into u^d2 - gamma^j*u = f(x)*lambda^(-d2), so
    the count is H_j[f(x)*lambda^(-d2)], where H_j is the histogram of
    u^d2 - gamma^j*u over F_q.  Only the g histograms H_0..H_{g-1} are
    built, one at a time.
    """
    p, k, q = field.base.p, field.k, field.q
    order = q - 1
    d2 = curve.d2 % order  # exponents of gamma live mod q - 1
    exp, log = _log_tables(field)
    exp_packed = _pack(exp, p)
    fx = _pack(_eval_f_rows(_element_digits(p, k, 0, q), curve.f_coefficients, field), p)

    logs = log[1:]  # log of every nonzero element, in index order
    ud2 = exp[(d2 * logs) % order]  # u^d2 for u != 0
    # x = 0: #{y : y^d2 = f(0)}, where y = 0 gives 0
    total = int(np.count_nonzero(_pack(ud2, p) == fx[0])) + int(fx[0] == 0)

    n = curve.d2 - 1
    g = gcd(n, order)
    reduced_order = order // g
    inv = pow(n // g, -1, reduced_order) if reduced_order > 1 else 0
    ell = (log[m] + logs) % order  # log(m*x) for x != 0
    coset = ell % g
    t = ((ell - coset) // g * inv) % reduced_order
    fxs = fx[1:]
    target = np.where(fxs != 0, exp_packed[(log[fxs] - d2 * t) % order], 0)
    for j in range(g):
        # u = 0 contributes u^d2 - gamma^j*u = 0
        values = _pack((ud2 - exp[(logs + j) % order]) % p, p)
        hist = np.bincount(values, minlength=q)
        hist[0] += 1
        total += int(hist[target[coset == j]].sum())
    return total


def count_affine(
    curve: CurveEquationModP,
    field: ExtField,
    *,
    budget: int = DEFAULT_COUNT_BUDGET,
    threads: int = 1,
) -> int:
    """Exact #{(x, y) in F_q^2 : y^d2 - m*x*y - f(x) = 0}.

    When the mixed term vanishes the count is a histogram pass over y^d2,
    split over fixed-size x-chunks that `threads` workers share.  Otherwise
    (`_count_mixed`) the substitution y = lambda*u with lambda^(d2-1) =
    m*x/gamma^j moves every x != 0 onto one of g = gcd(d2-1, q-1)
    histograms of u^d2 - gamma^j*u, for O(q*(g + k^2*deg f)) work in one
    thread.

    The budget bounds the work figure q (m = 0) or q^2 (m != 0), refusing
    oversized requests up front.  The q^2 figure is the size of the pair set
    (x, y) that the count decides, kept as the refusal measure so that which
    counts are refused does not change; it is not the work done.
    """
    p = field.base.p
    if curve.p.p != p:
        raise ParameterError("curve and field characteristics differ")
    q = field.q
    k = field.k
    m = curve.m % p
    work = q if m == 0 else q * q
    if work > budget:
        raise BudgetExceededError(
            f"enumeration work {work} exceeds budget {budget} for q = {q}"
        )
    if m != 0:
        return _count_mixed(curve, field, m)

    ys = _element_digits(p, k, 0, q)
    counts = np.bincount(_pack(_pow_rows(ys, curve.d2, field), p), minlength=q)

    def chunk_count(rng):
        lo, hi = rng
        fx = _eval_f_rows(_element_digits(p, k, lo, hi), curve.f_coefficients, field)
        return int(counts[_pack(fx, p)].sum())

    return sum(map_chunks(chunk_count, chunk_ranges(q, 65536), threads))


def count_points(
    curve: CurveEquation,
    p: int,
    k: int,
    *,
    infinity_count: int = 1,
    budget: int = DEFAULT_COUNT_BUDGET,
    threads: int = 1,
) -> tuple[int, int]:
    """(k, N_k) with N_k = affine count over F_{p^k} + infinity_count."""
    if infinity_count < 0:
        raise ParameterError("infinity_count must be >= 0")
    field = find_irreducible(p, k)
    reduced = CurveEquationModP.reduce(curve, p)
    affine = count_affine(reduced, field, budget=budget, threads=threads)
    return (k, affine + infinity_count)


def build_count_table(
    curve: CurveEquation,
    p: int,
    ks,
    *,
    infinity_count: int = 1,
    budget: int = DEFAULT_COUNT_BUDGET,
    threads: int = 1,
) -> PointCountTable:
    entries = tuple(
        count_points(
            curve, p, k, infinity_count=infinity_count, budget=budget, threads=threads
        )
        for k in ks
    )
    return PointCountTable(entries=entries, infinity_count=infinity_count)


def is_smooth_mod_p(
    curve: CurveEquationModP,
    *,
    budget: int = DEFAULT_COUNT_BUDGET,
) -> SmoothnessResult:
    """Affine-exhaustive smoothness test with a characteristic guard.

    The guard p | 2*d2*d1*lc(f) conservatively rejects primes where the
    behavior at infinity or the derivative structure degenerates; it may
    reject usable primes but never accepts a bad one.  Past the guard,
    smoothness fails iff some (x, y) in F_p^2 has F = F_x = F_y = 0; the
    lexicographically first such point is returned as witness.
    """
    p = curve.p.p
    fc = curve.f_coefficients
    orig_deg = len(fc) - 1
    red_deg = orig_deg
    while red_deg > 0 and fc[red_deg] == 0:
        red_deg -= 1
    # p | lc(f) shows up as a degree drop after reduction
    if (2 * curve.d2 * orig_deg) % p == 0 or red_deg != orig_deg:
        return SmoothnessResult(
            smooth=False,
            witness=None,
            guard_ok=False,
            reason=f"characteristic guard: {p} divides 2*d2*deg(f)*lc(f)",
        )
    if p * p > budget:
        raise BudgetExceededError(f"smoothness scan p^2 = {p*p} exceeds budget {budget}")
    m = curve.m % p
    ys = np.arange(p, dtype=np.int64)
    yd2 = _pow_scalar(ys, curve.d2, p)
    yd2m1 = _pow_scalar(ys, curve.d2 - 1, p)
    fprime = tuple((i * c) % p for i, c in enumerate(fc) if i > 0)
    for lo, hi in chunk_ranges(p, 4096):
        xs = np.arange(lo, hi, dtype=np.int64)
        fx = _eval_scalar(xs, fc, p)
        fpx = _eval_scalar(xs, fprime, p) if fprime else np.zeros_like(xs)
        mx = (m * xs) % p
        # F, F_x, F_y on the (x-chunk, y) grid
        f_grid = (yd2[None, :] - mx[:, None] * ys[None, :] - fx[:, None]) % p
        fx_grid = ((-m) * ys[None, :] - fpx[:, None]) % p
        fy_grid = (curve.d2 * yd2m1[None, :] - mx[:, None]) % p
        mask = (f_grid == 0) & (fx_grid == 0) & (fy_grid == 0)
        if mask.any():
            i, j = np.argwhere(mask)[0]
            return SmoothnessResult(
                smooth=False,
                witness=(int(lo + i), int(j)),
                guard_ok=True,
                reason="singular point found",
            )
    return SmoothnessResult(smooth=True, witness=None, guard_ok=True, reason=None)


def _pow_scalar(v: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.ones_like(v)
    base = v % p
    while e:
        if e & 1:
            result = (result * base) % p
        base = (base * base) % p
        e >>= 1
    return result


def _eval_scalar(x: np.ndarray, coeffs, p: int) -> np.ndarray:
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc
