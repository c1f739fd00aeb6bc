"""Prime fields, their extensions, and exact point counting for curves

    F(x, y) = y^d2 - m*x*y - f(x) = 0

over F_{p^k}.  This is the performance-critical core.  Every count is exact
and elementary (no Schoof-style shortcuts) and reads the discrete-log
tables of F_q*.  Without the mixed term each fibre has a closed form:
#{y : y^n = c} is 1 at c = 0, gcd(n, q-1) when log c = 0 mod gcd(n, q-1),
and 0 otherwise.  With it, a substitution y = lambda*u per x != 0 reduces
each fibre to a lookup in one of gcd(d2-1, q-1) histograms of
u^d2 - gamma^j*u.  Both do O(q) vectorized field operations in one
thread, and an independent, deliberately naive oracle is kept in the test
suite.

Field data is built once per process: `find_irreducible` and the discrete-log
tables (`_log_tables`) are memoized per field, the tables read-only and
held in an LRU cache of at most FIELD_TABLE_CACHE_BYTES, so a process that
counts many curves over the same F_{p^k} builds its modulus, primitive root
and tables once.  A field whose tables alone exceed the cap is built for
its count and not kept.  Every count is priced (q without the mixed term,
q^2 with it) before any table is built, and `build_count_table` prices
every degree of its table before it counts any of them.

Extension elements are coefficient vectors against a deterministic modulus:
the lexicographically smallest monic irreducible of degree k, where tuples
(c_{k-1}, ..., c_0) are compared most-significant coefficient first.  An
element with coefficients (e_0, ..., e_{k-1}) (ascending) is indexed by
sum e_i * p^i, so index order equals lex order and every enumeration loop
is reproducible.

f is evaluated over F_q in fixed blocks of 65,536 elements, in index
order, so the temporaries of its field products are bounded by the block,
not by q.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .arith import factorize, is_prime
from .errors import BudgetExceededError, ParameterError
from .family import _xcoeff_scale

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
# Bytes of per-field exp/log tables kept between counts (LRU).  Prime-scan
# fields hold a few kB each; F_{7^7} alone needs about 60 MB and is not kept.
FIELD_TABLE_CACHE_BYTES = 16 * 2**20
# Elements of F_q per block of f evaluations.
_X_BLOCK = 65536

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


@lru_cache(maxsize=1024)
def find_irreducible(p: int, k: int) -> ExtField:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1} x^{k-1} + ... + c_0 are scanned in ascending
    lex order of (c_{k-1}, ..., c_0), which coincides with the numeric
    order of sum c_i p^i.  Memoized: a field's modulus is found once per
    process.
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

    @classmethod
    def from_family(cls, params, convention: str = "standard") -> "CurveEquation":
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


def _eval_f_rows(x: np.ndarray, coeffs: tuple[int, ...], field: ExtField) -> np.ndarray:
    """Horner evaluation of a base-field-coefficient polynomial at each row."""
    p = field.base.p
    acc = np.zeros_like(x)
    acc[:, 0] = coeffs[-1] % p
    for c in reversed(coeffs[:-1]):
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


class _TableCache:
    """LRU of per-field tables, holding at most `cap` bytes of arrays."""

    def __init__(self, cap: int):
        self.cap = cap
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            tables = self._entries.get(key)
            if tables is not None:
                self._entries.move_to_end(key)
                return tables
        tables = build()
        size = sum(a.nbytes for a in tables)
        if size > self.cap:
            return tables
        with self._lock:
            if key not in self._entries:
                self._entries[key] = tables
                self.nbytes += size
            while self.nbytes > self.cap:
                _, old = self._entries.popitem(last=False)
                self.nbytes -= sum(a.nbytes for a in old)
        return tables

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_FIELD_TABLES = _TableCache(FIELD_TABLE_CACHE_BYTES)


def _log_tables(field: ExtField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exp, log, exp_packed): exp[i] = digits of gamma^i for 0 <= i < q-1,
    log[index of gamma^i] = i (log[0] is unused), and exp_packed[i] = index
    of gamma^i.

    Memoized per field in `_FIELD_TABLES`, so the arrays are shared and
    read-only.  exp is built by doubling: rows [n, 2n) are rows [0, n)
    times gamma^n.
    """
    return _FIELD_TABLES.get(field, lambda: _build_log_tables(field))


def _build_log_tables(field: ExtField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p, k, q = field.base.p, field.k, field.q
    exp = np.zeros((1, k), dtype=np.int64)
    exp[0, 0] = 1
    step = _primitive_root(field)
    while exp.shape[0] < q - 1:
        shifted = _mul_rows(exp, np.broadcast_to(step, exp.shape), field)
        exp = np.concatenate([exp, shifted])
        step = _mul_rows(step, step, field)
    exp = exp[: q - 1].copy()  # own buffer, so nbytes is what the cache holds
    exp_packed = _pack(exp, p)
    log = np.zeros(q, dtype=np.int64)
    log[exp_packed] = np.arange(q - 1, dtype=np.int64)
    for table in (exp, log, exp_packed):
        table.flags.writeable = False
    return exp, log, exp_packed


def _f_blocks(curve: CurveEquationModP, field: ExtField):
    """(lo, packed f(x) for lo <= x < lo + len) over F_q, in index-order
    blocks of _X_BLOCK elements."""
    p, k, q = field.base.p, field.k, field.q
    for lo in range(0, q, _X_BLOCK):
        xs = _element_digits(p, k, lo, min(lo + _X_BLOCK, q))
        yield lo, _pack(_eval_f_rows(xs, curve.f_coefficients, field), p)


def _root_count(values: np.ndarray, n: int, log: np.ndarray) -> int:
    """Sum over the packed elements c in `values` of #{y in F_q : y^n = c},
    read off the field's discrete-log table `log` (`_log_tables`).

    F_q* is cyclic of order q - 1, so with g = gcd(n, q - 1) the fibre over
    c != 0 has g elements when g divides log c and none otherwise; the
    fibre over 0 is {0}.
    """
    g = gcd(n, log.size - 1)
    nonzero = values[values != 0]
    return values.size - nonzero.size + g * int(np.count_nonzero(log[nonzero] % g == 0))


def _count_mixed(curve: CurveEquationModP, field: ExtField, m: int) -> int:
    """#{(x, y) : y^d2 - m*x*y = f(x)} for m != 0 in O(q) field operations.

    For x = 0 the count is #{y : y^d2 = f(0)} (`_root_count`).  For x != 0
    put c = m*x, l = log c, n = d2 - 1 and g = gcd(n, q - 1); then
    j = l mod g picks the coset of c modulo the n-th powers, and
    gamma^(l - j) = lambda^n with lambda = gamma^t, n*t = l - j (mod q - 1).
    Substituting y = lambda*u turns y^d2 - c*y = f(x) into
    u^d2 - gamma^j*u = f(x)*lambda^(-d2), so the count is
    H_j[f(x)*lambda^(-d2)], where H_j is the histogram of u^d2 - gamma^j*u
    over F_q.  Only the g histograms H_0..H_{g-1} are built, one at a time,
    after every x has its (j, target).
    """
    p, q = field.base.p, field.q
    order = q - 1
    d2 = curve.d2 % order  # exponents of gamma live mod q - 1
    exp, log, exp_packed = _log_tables(field)
    n = curve.d2 - 1
    g = gcd(n, order)
    reduced_order = order // g
    inv = pow(n // g, -1, reduced_order) if reduced_order > 1 else 0

    total = 0
    blocks = []  # (j, packed f(x)*lambda^(-d2)) of each block's x != 0
    for lo, fx in _f_blocks(curve, field):
        if lo == 0:
            total += _root_count(fx[:1], curve.d2, log)
            lo, fx = 1, fx[1:]
        ell = (log[m] + log[lo : lo + fx.size]) % order  # log(m*x)
        coset = ell % g
        t = ((ell - coset) // g * inv) % reduced_order
        blocks.append((coset, np.where(fx != 0, exp_packed[(log[fx] - d2 * t) % order], 0)))

    logs = log[1:]  # log of every nonzero element, in index order
    ud2 = exp[(d2 * logs) % order]  # u^d2 for u != 0
    for j in range(g):
        # u = 0 contributes u^d2 - gamma^j*u = 0
        values = _pack((ud2 - exp[(logs + j) % order]) % p, p)
        hist = np.bincount(values, minlength=q)
        hist[0] += 1
        total += sum(int(hist[target[coset == j]].sum()) for coset, target in blocks)
    return total


def _price_count(curve: CurveEquationModP, q: int, budget: int) -> None:
    """Refuse a count over F_q whose work figure exceeds the budget.

    The figure is q (m = 0) or q^2 (m != 0).  The q^2 figure is the size of
    the pair set (x, y) that the count decides, kept as the refusal measure
    so that which counts are refused does not change; it is not the work
    done.
    """
    work = q if curve.m % curve.p.p == 0 else q * q
    if work > budget:
        raise BudgetExceededError(
            f"enumeration work {work} exceeds budget {budget} for q = {q}"
        )


def count_affine(
    curve: CurveEquationModP,
    field: ExtField,
    *,
    budget: int = DEFAULT_COUNT_BUDGET,
) -> int:
    """Exact #{(x, y) in F_q^2 : y^d2 - m*x*y - f(x) = 0}.

    f is evaluated in blocks of F_q (`_f_blocks`).  When the mixed term
    vanishes, every fibre #{y : y^d2 = f(x)} has the closed form of
    `_root_count`.  Otherwise (`_count_mixed`) the substitution
    y = lambda*u with lambda^(d2-1) = m*x/gamma^j moves every x != 0 onto
    one of g = gcd(d2-1, q-1) histograms of u^d2 - gamma^j*u, for
    O(q*(g + k^2*deg f)) work.  Both read the field's log tables, which
    are built once per process and shared by every count over the same
    field.

    The count is priced (`_price_count`) and refused before any table is
    built when its work figure exceeds the budget.
    """
    p = field.base.p
    if curve.p.p != p:
        raise ParameterError("curve and field characteristics differ")
    _price_count(curve, field.q, budget)
    m = curve.m % p
    if m != 0:
        return _count_mixed(curve, field, m)
    log = _log_tables(field)[1]
    return sum(_root_count(fx, curve.d2, log) for _, fx in _f_blocks(curve, field))


def count_points(
    curve: CurveEquation,
    p: int,
    k: int,
    *,
    infinity_count: int = 1,
    budget: int = DEFAULT_COUNT_BUDGET,
    threads: int = 1,
) -> tuple[int, int]:
    """(k, N_k) with N_k = affine count over F_{p^k} + infinity_count.

    `threads` is accepted for existing callers and selects nothing: every
    count runs in one thread.
    """
    if infinity_count < 0:
        raise ParameterError("infinity_count must be >= 0")
    field = find_irreducible(p, k)
    reduced = CurveEquationModP.reduce(curve, p)
    affine = count_affine(reduced, field, budget=budget)
    return (k, affine + infinity_count)


def build_count_table(
    curve: CurveEquation,
    p: int,
    ks,
    *,
    budget: int = DEFAULT_COUNT_BUDGET,
) -> PointCountTable:
    """N_k for each k in ks, each with one point at infinity.

    Every k is priced before any is counted, so a table whose top degree
    is over budget costs no counting; the refusal names the first k in
    `ks` over budget, as counting them in order would.  The curve is
    reduced mod p once, for the pricing and every count.
    """
    ks = tuple(ks)
    reduced = CurveEquationModP.reduce(curve, p)
    for k in ks:
        _price_count(reduced, p**k, budget)
    entries = tuple(
        (k, count_affine(reduced, find_irreducible(p, k), budget=budget) + 1)
        for k in ks
    )
    return PointCountTable(entries=entries, infinity_count=1)


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
    field = find_irreducible(p, 1)  # its tables serve the k = 1 count too
    _, log, exp_packed = _log_tables(field)
    ys = np.arange(p, dtype=np.int64)
    yd2m1 = exp_packed[((curve.d2 - 1) % (p - 1)) * log % (p - 1)]
    yd2m1[0] = 0  # 0^(d2-1) = 0, as d2 >= 2
    yd2 = (yd2m1 * ys) % p
    fprime = tuple((i * c) % p for i, c in enumerate(fc) if i > 0)
    for lo in range(0, p, 4096):
        xs = np.arange(lo, min(lo + 4096, p), dtype=np.int64)
        fx = _eval_f_rows(xs[:, None], fc, field)[:, 0]
        fpx = _eval_f_rows(xs[:, None], fprime, field)[:, 0]
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

