"""Prime fields, their extensions, and exact point counting for curves

    F(x, y) = y^d2 - m*x*y - f(x) = 0

over F_{p^k}.  This is the performance-critical core.  Every count is exact
and elementary (no Schoof-style shortcuts) and runs in discrete-log
coordinates: with F_q* = <gamma>, a nonzero element is its log, a product is
a sum of logs, and a sum is one lookup in the field's table of Zech
logarithms, 1 + gamma^n = gamma^Z(n) (Lidl-Niederreiter, Finite Fields,
10.3).  Without the mixed term each fibre has a closed form: #{y : y^n = c}
is 1 at c = 0, gcd(n, q-1) when log c = 0 mod gcd(n, q-1), and 0 otherwise.
With it, a substitution y = lambda*u per x != 0 reduces each fibre to a
lookup in one of g = gcd(d2-1, q-1) histograms of u^d2 - gamma^j*u.  The
histograms depend only on the field and on d2 mod q-1, so the first count
over them does their O(g*q) work and every later one, whatever its f and m,
does O(q) lookups, as a count without the mixed term always does.  Counts
run in one thread, over blocks of _X_BLOCK elements, and an independent,
deliberately naive oracle is kept in the test suite.  The smoothness scan
over F_p is O(p), as each x allows at most one singular y.

Field data is built once per process: `find_irreducible` and the discrete-log
tables (`_log_tables`) are memoized per field, the tables read-only and
held in an LRU cache of at most FIELD_TABLE_CACHE_BYTES, so a process that
counts many curves over the same F_{p^k} builds its modulus, primitive root
and tables once.  The mixed-count histograms are kept the same way, per
(field, d2 mod q-1), in a second cache of the same cap (`_MIXED_TABLES`).
Tables larger than their cache's cap are built for their count and not
kept.  Every count is priced (q without the mixed term, q^2 with it) before
any table is built, and `build_count_table` prices every degree of its table
before it counts any of them.

Extension elements are coefficient vectors against a deterministic modulus:
the lexicographically smallest monic irreducible of degree k, where tuples
(c_{k-1}, ..., c_0) are compared most-significant coefficient first.  An
element with coefficients (e_0, ..., e_{k-1}) (ascending) is indexed by
sum e_i * p^i, so index order equals lex order and every enumeration loop
is reproducible.
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
from .family import DEFAULT_BUDGET, _xcoeff_scale

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

# Bytes of per-field exp/log/Zech tables (24*q) kept between counts (LRU).
# Prime-scan fields hold under 0.3 MB each; F_{7^7} needs 20 MB, not kept.
FIELD_TABLE_CACHE_BYTES = 16 * 2**20
# Elements of F_q (or histogram cells) per block of vectorized lookups.
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
        mod = tuple((n // p**i) % p for i in range(k)) + (1,)
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


# ---- field tables: discrete logs and Zech logarithms ----

def _mul_rows(a: np.ndarray, b: np.ndarray, field: ExtField) -> np.ndarray:
    """Row-wise field product of two (n, k) digit matrices."""
    p, k, mod = field.base.p, field.k, field.modulus
    if k == 1:
        return (a * b) % p
    conv = np.zeros((a.shape[0], 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            conv[:, i + j] = (conv[:, i + j] + a[:, i] * b[:, j]) % p
    for d in range(2 * k - 2, k - 1, -1):  # reduce against the monic modulus
        for i in range(k):
            if mod[i]:
                conv[:, d - k + i] = (conv[:, d - k + i] - conv[:, d] * mod[i]) % p
    return conv[:, :k]


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
# Mixed-count histograms and x-side arrays per (field, d2 mod q-1), apart
# from the log tables and under a cap of the same size (`_mixed_fibres`).
_MIXED_TABLES = _TableCache(FIELD_TABLE_CACHE_BYTES)


def _log_tables(field: ExtField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exp_packed, log, zech) of F_q* = <gamma>, memoized per field in
    `_FIELD_TABLES`, so the arrays are shared and read-only:

    - exp_packed[i] = index (`_pack`) of gamma^i, for 0 <= i < q-1;
    - log[exp_packed[i]] = i, and log[0] = q-1 stands for the log of 0;
    - zech[n] = log(1 + gamma^n), Zech's logarithm, so that
      gamma^a + gamma^b = gamma^(a + zech[b - a]); it is q-1 exactly at
      n = log(-1).
    """
    return _FIELD_TABLES.get(field, lambda: _build_log_tables(field))


def _build_log_tables(field: ExtField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits of gamma^i are built for one block of n >= _X_BLOCK
    exponents (or all q-1) by doubling: rows [n, 2n) are rows [0, n) times
    gamma^n.  Each later block is the previous one times gamma^n, and only
    the packed indices are kept."""
    p, k, q = field.base.p, field.k, field.q
    order = q - 1
    rows = np.zeros((1, k), dtype=np.int64)
    rows[0, 0] = 1
    step = _primitive_root(field)
    while rows.shape[0] < min(order, _X_BLOCK):
        shifted = _mul_rows(rows, np.broadcast_to(step, rows.shape), field)
        rows = np.concatenate([rows, shifted])
        step = _mul_rows(step, step, field)
    n = rows.shape[0]  # rows hold gamma^0 .. gamma^(n-1), and step is gamma^n
    exp_packed = np.empty(order, dtype=np.int64)
    for lo in range(0, order, n):
        if lo:
            rows = _mul_rows(rows, np.broadcast_to(step, rows.shape), field)
        exp_packed[lo : lo + n] = _pack(rows[: order - lo], p)
    log = np.empty(q, dtype=np.int64)
    log[exp_packed] = np.arange(order, dtype=np.int64)
    log[0] = order
    # 1 + gamma^n adds 1 to digit 0 of gamma^n, which wraps from p-1 to 0
    # without a carry
    plus_one = exp_packed + 1
    plus_one[exp_packed % p == p - 1] -= p
    zech = log[plus_one]
    for table in (exp_packed, log, zech):
        table.flags.writeable = False
    return exp_packed, log, zech


def _f_logs(terms, i: np.ndarray, order: int, zech: np.ndarray) -> np.ndarray:
    """log f(gamma^i) at each exponent in `i`, `order` = q-1 where it is 0.

    `terms` holds (e, log c_e) for the nonzero coefficients c_e of f.  Each
    monomial is gamma^(log c_e + e*i), and they are summed by Zech additions.
    """
    if not terms:  # f = 0 mod p
        return np.full_like(i, order)
    (e, log_c), rest = terms[0], terms[1:]
    acc = (log_c + e * i) % order
    for n, (e, log_c) in enumerate(rest):
        t = (log_c + e * i) % order
        z = zech[(t - acc) % order]
        joined = np.where(z == order, order, (acc + z) % order)
        acc = np.where(acc == order, t, joined) if n else joined
    return acc


def _mixed_fibres(curve, m: int, terms, field: ExtField, log, zech) -> int:
    """Sum over x != 0 of #{y : y^d2 - m*x*y = f(x)}, in O(q) table lookups
    once the field's histograms for d2 are built.

    Put x = gamma^i, l = log(m*x), n = d2 - 1 and g = gcd(n, q - 1); then
    j = l mod g picks the coset of m*x modulo the n-th powers, and
    gamma^(l - j) = lambda^n with lambda = gamma^t, n*t = l - j (mod q - 1).
    Substituting y = lambda*u turns y^d2 - m*x*y = f(x) into
    u^d2 - gamma^j*u = f(x)*lambda^(-d2), so the fibre is
    H_j[f(x)*lambda^(-d2)], where H_j is the histogram of u^d2 - gamma^j*u
    over F_q.  At u = gamma^s, u^d2 - gamma^j*u is one Zech lookup,
    gamma^(d2*s) * (1 + gamma^(log(-1) + j + (1 - d2)*s)).  Each x keeps its
    key j*q + log(target); several H_j share one bincount while the group
    stays within _X_BLOCK cells.

    The histograms, and the x side indexed by l (the cell offset j*q and
    d2*t), depend only on the field and on d2 mod q - 1, never on f or m.
    They are built once and kept read-only in `_MIXED_TABLES`, one entry
    per group of histograms, so a warm count computes f's logs and its keys
    and then does one gather per group; a cold one also does the O(g*q)
    histogram work.  x runs over gamma^(l - log m) in order of l, so the x
    side is read in place and each monomial's log is shifted instead.
    """
    q, order = field.q, field.q - 1
    d2 = curve.d2 % order  # exponents of gamma live mod q - 1
    g = gcd(d2 - 1, order)

    def x_side():
        reduced_order = order // g
        inv = pow((d2 - 1) // g, -1, reduced_order) if reduced_order > 1 else 0
        cell, lambda_d2 = np.empty(order, dtype=np.int64), np.empty(order, dtype=np.int64)
        for lo in range(0, order, _X_BLOCK):
            ell = np.arange(lo, min(lo + _X_BLOCK, order), dtype=np.int64)
            cell[lo : lo + ell.size] = ell % g * q
            lambda_d2[lo : lo + ell.size] = d2 * (ell // g * inv % reduced_order) % order
        for table in (cell, lambda_d2):
            table.flags.writeable = False
        return cell, lambda_d2

    def histograms(j0: int, width: int):
        """H_j0 .. H_(j0 + width - 1), side by side in width*q cells."""
        shift = int(log[field.base.p - 1])  # log(-1)
        slope = (1 - d2) % order
        js = np.arange(j0, j0 + width, dtype=np.int64)[:, None]
        values = np.empty((width, order), dtype=np.int64)
        for lo in range(0, order, _X_BLOCK):
            s = np.arange(lo, min(lo + _X_BLOCK, order), dtype=np.int64)
            z = zech[(shift + js + slope * s) % order]
            values[:, lo : lo + s.size] = np.where(z == order, order, (d2 * s + z) % order)
        values += (js - j0) * q
        hist = np.bincount(values.ravel(), minlength=width * q)
        hist[order::q] += 1  # u = 0 gives u^d2 - gamma^j*u = 0
        hist.flags.writeable = False
        return (hist,)

    cell, lambda_d2 = _MIXED_TABLES.get((field, d2), x_side)
    log_m = int(log[m])
    terms = [(e, (log_c - e * log_m) % order) for e, log_c in terms]
    keys = np.empty(order, dtype=np.int64)
    for lo in range(0, order, _X_BLOCK):
        ell = np.arange(lo, min(lo + _X_BLOCK, order), dtype=np.int64)
        fx = _f_logs(terms, ell, order, zech)
        block = slice(lo, lo + ell.size)
        keys[block] = cell[block] + np.where(fx == order, order, (fx - lambda_d2[block]) % order)

    per_group = max(1, _X_BLOCK // q)
    total = 0
    for j0 in range(0, g, per_group):
        width = min(per_group, g - j0)
        (hist,) = _MIXED_TABLES.get((field, d2, j0), lambda: histograms(j0, width))
        group = keys
        if width < g:  # this group's keys only
            group = keys[(keys >= j0 * q) & (keys < (j0 + width) * q)] - j0 * q
        total += int(hist[group].sum())
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
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact #{(x, y) in F_q^2 : y^d2 - m*x*y - f(x) = 0}.

    Every field operation is a lookup in the field's log tables
    (`_log_tables`), built once per process and shared by every count over
    the field.  For x = gamma^i, f(x) is one gather per nonzero monomial
    joined by Zech additions (`_f_logs`).  The fibre over x = 0, and every
    fibre without the mixed term, is #{y : y^d2 = c}: 1 at c = 0, g when
    g = gcd(d2, q-1) divides log c, and 0 otherwise (F_q* is cyclic).  With
    it, `_mixed_fibres` reads each x != 0 off one of gcd(d2-1, q-1)
    histograms, kept per (field, d2 mod q-1).  Both take O(q) lookups once
    those histograms are built.

    The count is priced (`_price_count`) and refused before any table is
    built when its work figure exceeds the budget.
    """
    p = field.base.p
    if curve.p.p != p:
        raise ParameterError("curve and field characteristics differ")
    _price_count(curve, field.q, budget)
    _, log, zech = _log_tables(field)
    order = field.q - 1
    terms = [(e, int(log[c])) for e, c in enumerate(curve.f_coefficients) if c]
    g = gcd(curve.d2, order)
    f0 = int(log[curve.f_coefficients[0]])
    total = 1 if f0 == order else g * (f0 % g == 0)  # x = 0
    m = curve.m % p
    if m:
        return total + _mixed_fibres(curve, m, terms, field, log, zech)
    for lo in range(0, order, _X_BLOCK):
        fx = _f_logs(terms, np.arange(lo, min(lo + _X_BLOCK, order), dtype=np.int64), order, zech)
        zeros = int(np.count_nonzero(fx == order))  # order = 0 (mod g) too
        total += zeros + g * (int(np.count_nonzero(fx % g == 0)) - zeros)
    return total


def count_points(
    curve: CurveEquation,
    p: int,
    k: int,
    *,
    infinity_count: int = 1,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[int, int]:
    """(k, N_k) with N_k = affine count over F_{p^k} + infinity_count, read
    off the one-degree `build_count_table`.

    `threads` is accepted for existing callers and selects nothing: every
    count runs in one thread.
    """
    if infinity_count < 0:
        raise ParameterError("infinity_count must be >= 0")
    ((_, n_k),) = build_count_table(curve, p, (k,), budget=budget).entries
    return (k, n_k + infinity_count - 1)


def build_count_table(
    curve: CurveEquation,
    p: int,
    ks,
    *,
    budget: int = DEFAULT_BUDGET,
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


def _eval_mod_p(coeffs: tuple[int, ...], xs: np.ndarray, p: int) -> np.ndarray:
    """Horner evaluation over F_p of ascending coefficients reduced mod p."""
    acc = np.zeros_like(xs)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % p
    return acc


def is_smooth_mod_p(
    curve: CurveEquationModP,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SmoothnessResult:
    """Affine-exhaustive smoothness test with a characteristic guard.

    The guard p | 2*d2*d1*lc(f) conservatively rejects primes where the
    behavior at infinity or the derivative structure degenerates; it may
    reject usable primes but never accepts a bad one.  Past the guard,
    smoothness fails iff some (x, y) in F_p^2 has F = F_x = F_y = 0, and
    each x allows at most one y, so the scan is O(p):

    - m != 0: F_x = -m*y - f'(x) = 0 fixes y = -f'(x)/m;
    - m = 0: F_y = d2*y^(d2-1) = 0 forces y = 0, as p does not divide d2.

    The first x (in index order) whose one candidate is singular gives
    the lexicographically first singular point, returned as witness.  The
    budget still caps the p^2 points the test decides.
    """
    p = curve.p.p
    fc = curve.f_coefficients
    # p | lc(f) shows up as a zero leading coefficient after reduction
    if (2 * curve.d2 * (len(fc) - 1)) % p == 0 or fc[-1] == 0:
        return SmoothnessResult(
            smooth=False,
            witness=None,
            guard_ok=False,
            reason=f"characteristic guard: {p} divides 2*d2*deg(f)*lc(f)",
        )
    if p * p > budget:
        raise BudgetExceededError(f"smoothness scan p^2 = {p*p} exceeds budget {budget}")
    m = curve.m % p
    fprime = tuple((i * c) % p for i, c in enumerate(fc))[1:]
    if m:
        # its tables serve the k = 1 count too
        exp_packed, log, _ = _log_tables(find_irreducible(p, 1))
        minus_inv_m = -pow(m, -1, p) % p
        e = (curve.d2 - 1) % (p - 1)
    for lo in range(0, p, _X_BLOCK):
        xs = np.arange(lo, min(lo + _X_BLOCK, p), dtype=np.int64)
        fx, fpx = _eval_mod_p(fc, xs, p), _eval_mod_p(fprime, xs, p)
        if m:
            ys = (fpx * minus_inv_m) % p
            yd2m1 = np.where(ys == 0, 0, exp_packed[log[ys] * e % (p - 1)])
            mx = (m * xs) % p
            # F = y*(y^(d2-1) - m*x) - f(x) and F_y = d2*y^(d2-1) - m*x
            hit = ((yd2m1 - mx) * ys % p == fx) & ((curve.d2 % p) * yd2m1 % p == mx)
        else:
            ys = np.zeros_like(xs)
            hit = (fx == 0) & (fpx == 0)
        if hit.any():
            x = int(hit.argmax())
            witness = (lo + x, int(ys[x]))
            return SmoothnessResult(False, witness, guard_ok=True, reason="singular point found")
    return SmoothnessResult(smooth=True, witness=None, guard_ok=True, reason=None)
