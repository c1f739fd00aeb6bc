import itertools
import random
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selli_cert import ffield
from selli_cert.errors import BudgetExceededError, ParameterError
from selli_cert.ffield import (
    CurveEquation,
    CurveEquationModP,
    ExtField,
    PrimeField,
    SmoothnessResult,
    build_count_table,
    count_affine,
    count_points,
    find_irreducible,
    is_smooth_mod_p,
)

# ---- test-side field arithmetic, deliberately naive ----


def naive_mul(u, v, modulus, p):
    k = len(modulus) - 1
    res = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            res[i + j] += u[i] * v[j]
    for d in range(len(res) - 1, k - 1, -1):
        c = res[d] % p
        res[d] = 0
        for i in range(k):
            res[d - k + i] -= c * modulus[i]
    return tuple(c % p for c in res[:k])


def naive_pow(u, e, modulus, p):
    k = len(modulus) - 1
    out = (1,) + (0,) * (k - 1)
    for _ in range(e):
        out = naive_mul(out, u, modulus, p)
    return out


def naive_affine_count(curve, field):
    p, k, mod = field.base.p, field.k, field.modulus
    f = [c % p for c in curve.f_coefficients]
    m = curve.m % p
    elements = list(itertools.product(range(p), repeat=k))
    total = 0
    for x in elements:
        fx = (0,) * k
        for c in reversed(f):  # Horner: fx = fx * x + c
            fx = naive_mul(fx, x, mod, p)
            fx = ((fx[0] + c) % p,) + fx[1:]
        for y in elements:
            lhs = naive_pow(y, curve.d2, mod, p)
            if m:
                mx = tuple((m * c) % p for c in x)
                lhs = tuple(
                    (a - b) % p for a, b in zip(lhs, naive_mul(mx, y, mod, p))
                )
            if lhs == fx:
                total += 1
    return total


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(2**31 - 1)
    with pytest.raises(ParameterError):
        PrimeField(15)
    with pytest.raises(ParameterError):
        PrimeField(2**31 + 11)


def test_find_irreducible_lex_smallest():
    cases = {
        (2, 1): (0, 1),
        (3, 2): (1, 0, 1),
        (5, 2): (2, 0, 1),
        (7, 2): (1, 0, 1),
        (11, 2): (1, 0, 1),
        (7, 3): (2, 0, 0, 1),
        (11, 3): (4, 1, 0, 1),
        (31, 2): (1, 0, 1),
        (31, 3): (3, 0, 0, 1),
    }
    for (p, k), modulus in cases.items():
        assert find_irreducible(p, k).modulus == modulus, (p, k)


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(ParameterError):
        ExtField(base=PrimeField(5), k=2, modulus=(1, 0, 1))  # x^2+1 = (x+2)(x+3) mod 5
    with pytest.raises(ParameterError):
        ExtField(base=PrimeField(5), k=2, modulus=(2, 0, 2))  # not monic


def test_parse_round_trips():
    c = CurveEquation.parse("y^2=x^3+1")
    assert (c.d2, c.f_coefficients, c.m) == (2, (1, 0, 0, 1), 0)
    c = CurveEquation.parse("y^10=13x^3+x*y-102")
    assert (c.d2, c.f_coefficients, c.m) == (10, (-102, 0, 0, 13), 1)
    c = CurveEquation.parse("y^2=x^5-x+1")
    assert (c.d2, c.f_coefficients, c.m) == (2, (1, -1, 0, 0, 0, 1), 0)
    c = CurveEquation.parse("y^14 = 25x^3 + 2xy - 201")
    assert (c.d2, c.f_coefficients, c.m) == (14, (-201, 0, 0, 25), 2)


def test_parse_rejects_garbage():
    for bad in ("y=x", "y^2=x^3+1=2", "y^2=sin(x)", "y^2="):
        with pytest.raises(ParameterError):
            CurveEquation.parse(bad)


def test_from_family_matches_parse():
    from selli_cert.family import validate_params

    params = validate_params(13, 1, 3, 10)
    assert CurveEquation.from_family(params) == CurveEquation.parse(
        "y^10=13x^3+x*y-102"
    )
    p25 = validate_params(25, 2, 3, 14)
    assert CurveEquation.from_family(p25, "standard") == CurveEquation.parse(
        "y^14=25x^3+2xy-201"
    )
    assert CurveEquation.from_family(p25, "paper-ex2") == CurveEquation.parse(
        "y^14=25x^3+xy-201"
    )


def test_count_known_small():
    ec = CurveEquation.parse("y^2=x^3+1")
    assert count_points(ec, 5, 1)[1] == 6
    cusp = CurveEquation.parse("y^2=x^3")
    assert count_points(cusp, 2, 1, infinity_count=0)[1] == 2
    mixed = CurveEquation.parse("y^10=13x^3+x*y-102")
    assert count_points(mixed, 7, 1, infinity_count=0)[1] == 4


def test_count_quintic_towers():
    q = CurveEquation.parse("y^2=x^5-x+1")
    assert build_count_table(q, 7, [1, 2, 3]).entries == ((1, 7), (2, 49), (3, 322))
    assert build_count_table(q, 11, [1, 2]).entries == ((1, 19), (2, 135))


def test_count_table_reduces_the_curve_once(monkeypatch):
    reduce = CurveEquationModP.reduce.__func__
    calls = []

    def counted(cls, curve, p):
        calls.append(p)
        return reduce(cls, curve, p)

    monkeypatch.setattr(CurveEquationModP, "reduce", classmethod(counted))
    q = CurveEquation.parse("y^2=x^5-x+1")
    assert build_count_table(q, 7, [1, 2, 3]).entries == ((1, 7), (2, 49), (3, 322))
    assert calls == [7]


def test_count_threads_equal():
    q = CurveEquation.parse("y^2=x^5-x+1")
    single = count_points(q, 11, 3, threads=1)
    assert single == count_points(q, 11, 3, threads=4)
    assert single == (3, 1255)
    mixed = CurveEquation.parse("y^14=25x^3+2xy-201")
    assert count_points(mixed, 13, 2, threads=1) == count_points(
        mixed, 13, 2, threads=8
    )


def test_count_budget_refusal():
    q = CurveEquation.parse("y^2=x^5-x+1")
    with pytest.raises(BudgetExceededError):
        count_points(q, 101, 4, budget=10**6)  # q = 101^4 > 10^6, m = 0
    mixed = CurveEquation.parse("y^10=13x^3+x*y-102")
    with pytest.raises(BudgetExceededError) as refused:
        count_points(mixed, 101, 2, budget=10**6)  # q^2 = 101^4 > 10^6, m != 0
    # certificates store this text verbatim as a skip reason
    assert str(refused.value) == (
        "enumeration work 104060401 exceeds budget 1000000 for q = 10201"
    )


# affine counts of y^26 = 2317x^3 + x*y - 18537, recorded from a kernel that
# visited every (x, y) pair
MIXED_PINNED = {(13, 3): 2167, (11, 3): 1295, (5, 5): 3249, (3, 6): 890, (2, 7): 115}


@pytest.mark.parametrize("pk", sorted(MIXED_PINNED), ids=lambda pk: f"{pk[0]}^{pk[1]}")
def test_mixed_count_pinned(pk):
    p, k = pk
    curve = CurveEquation.parse("y^26=2317x^3+x*y-18537")
    reduced = CurveEquationModP.reduce(curve, p)
    assert count_affine(reduced, find_irreducible(p, k)) == MIXED_PINNED[pk]


# N_k (with the point at infinity) of y^10 = 13x^3 + x*y - 102, recorded from
# the kernel that evaluated f on digit vectors and built each histogram of
# u^d2 - gamma^j*u by its own pass; q^2 is past the default budget
MIXED_PINNED_LARGE = {(7, 6): 117429, (11, 5): 161546, (1009, 2): 1019766}


@pytest.mark.parametrize("pk", sorted(MIXED_PINNED_LARGE), ids=lambda pk: f"{pk[0]}^{pk[1]}")
def test_mixed_count_pinned_large(pk):
    curve = CurveEquation.parse("y^10=13x^3+x*y-102")
    assert count_points(curve, *pk, budget=10**13) == (pk[1], MIXED_PINNED_LARGE[pk])


# affine counts without the mixed term, recorded from a kernel that built the
# histogram of y^d2 by repeated squaring; both fields span more than one
# 65,536-element block of x, and gcd(12, 257^2 - 1) = 12
PURE_PINNED = {("y^12=13x^3-102", 257, 2): 66819, ("y^10=13x^3-102", 7, 6): 117935}


@pytest.mark.parametrize("case", sorted(PURE_PINNED), ids=lambda c: f"{c[0]}@{c[1]}^{c[2]}")
def test_pure_count_pinned(case):
    text, p, k = case
    reduced = CurveEquationModP.reduce(CurveEquation.parse(text), p)
    assert count_affine(reduced, find_irreducible(p, k)) == PURE_PINNED[case]


def test_count_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a point count started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    curve = CurveEquation.parse("y^12=13x^3-102")
    assert count_points(curve, 257, 2, threads=8) == (2, 66819 + 1)


def unpack(index, p, k):
    return tuple((index // p**i) % p for i in range(k))


@pytest.mark.parametrize(
    "pk", [(2, 1), (2, 3), (3, 1), (5, 2), (7, 3), (13, 2), (2, 10), (3, 7), (5, 5)]
)
def test_log_tables_cover_the_group(pk):
    p, k = pk
    field = find_irreducible(p, k)
    q = field.q
    exp_packed, log, _ = ffield._log_tables(field)
    # exp_packed walks the powers of one generator gamma, and gamma^(q-1) = 1
    gamma = unpack(int(exp_packed[1 % (q - 1)]), p, k)
    power = unpack(1, p, k)
    for i in range(q - 1):
        assert unpack(int(exp_packed[i]), p, k) == power, i
        power = naive_mul(power, gamma, field.modulus, p)
    assert sorted(exp_packed.tolist()) == list(range(1, q))
    assert (log[exp_packed] == list(range(q - 1))).all()
    assert log[0] == q - 1  # the log of 0


@pytest.mark.parametrize(
    "pk", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 1), (13, 2), (2, 10), (3, 7), (5, 5)]
)
def test_zech_logarithms(pk):
    # zech[n] = log(1 + gamma^n), with the sentinel q - 1 exactly at log(-1)
    p, k = pk
    field = find_irreducible(p, k)
    exp_packed, log, zech = ffield._log_tables(field)
    q = field.q
    minus_one = int(log[p - 1])  # -1 has index p - 1
    assert zech.shape == (q - 1,)
    for n in range(q - 1):
        digits = unpack(int(exp_packed[n]), p, k)
        one_more = ((digits[0] + 1) % p,) + digits[1:]
        index = sum(d * p**i for i, d in enumerate(one_more))
        if n == minus_one:
            assert index == 0 and zech[n] == q - 1
        else:
            assert index != 0 and zech[n] == log[index] < q - 1, n


# index of gamma, the first generator of F_q* in index order, per (p, k)
GENERATOR_INDEX = {
    (5, 1): 2, (23, 1): 5, (11, 3): 11, (23, 2): 25, (37, 3): 75, (101, 2): 102,
    (1009, 2): 1018, (13, 4): 17, (5, 7): 9, (7, 6): 8, (3, 10): 34, (2, 16): 3,
}


@pytest.mark.parametrize("pk", sorted(GENERATOR_INDEX), ids=lambda pk: f"{pk[0]}^{pk[1]}")
def test_generator_is_pinned(pk):
    # every exp/log/Zech table is read off gamma's powers
    exp_packed, _, _ = ffield._log_tables(find_irreducible(*pk))
    assert int(exp_packed[1]) == GENERATOR_INDEX[pk]


@pytest.mark.parametrize("k, modulus", [(2, (1, 0, 1)), (3, (5, 0, 0, 1))])
def test_exact_arithmetic_at_the_prime_cap(k, modulus):
    # a sum of three products of digits near 2^31 overflows int64; two fit
    p = 2**31 - 1
    field = find_irreducible(p, k)
    assert field.modulus == modulus
    rng = random.Random(k)
    for _ in range(20):
        u = tuple(rng.randrange(p) for _ in range(k))
        e = rng.randrange(64)
        assert ffield._pol_pow_mod(u, e, modulus, p) == naive_pow(u, e, modulus, p), (u, e)


def test_field_data_is_built_once():
    field = find_irreducible(13, 2)
    assert find_irreducible(13, 2) is field
    tables = ffield._log_tables(field)
    assert ffield._log_tables(find_irreducible(13, 2)) is tables


def test_cached_tables_are_read_only():
    exp_packed, log, zech = ffield._log_tables(find_irreducible(7, 2))
    for table in (exp_packed, log, zech):
        with pytest.raises(ValueError):
            table[1] = 0
    # the tables a count reads are still the group's
    assert sorted(exp_packed.tolist()) == list(range(1, 49))


def test_table_cache_holds_at_most_its_cap(monkeypatch):
    build = ffield._build_log_tables
    built = []

    def counting_build(field):
        built.append((field.base.p, field.k))
        return build(field)

    def size(pk):
        return sum(t.nbytes for t in build(find_irreducible(*pk)))

    fields = [(3, 4), (5, 3), (7, 3), (11, 2), (13, 2), (2, 7)]
    cap = 2 * max(size(pk) for pk in fields)
    assert sum(size(pk) for pk in fields) > cap
    cache = ffield._TableCache(cap)
    monkeypatch.setattr(ffield, "_FIELD_TABLES", cache)
    monkeypatch.setattr(ffield, "_build_log_tables", counting_build)
    for pk in fields:
        ffield._log_tables(find_irreducible(*pk))
        assert 0 < cache.nbytes <= cap, pk
    assert built == fields
    # the most recent field is still held; the oldest was evicted and is rebuilt
    ffield._log_tables(find_irreducible(*fields[-1]))
    assert built == fields
    ffield._log_tables(find_irreducible(*fields[0]))
    assert built == fields + [fields[0]]
    assert cache.nbytes <= cap

    # a field whose tables alone exceed the cap is built but not kept
    held = cache.nbytes
    big = find_irreducible(5, 6)
    assert sum(t.nbytes for t in ffield._log_tables(big)) > cap
    assert cache.nbytes == held
    ffield._log_tables(big)
    assert built[-2:] == [(5, 6), (5, 6)]


class CountingCache(ffield._TableCache):
    """A `_TableCache` that records the key of every build and checks its
    cap after every lookup."""

    def __init__(self, cap):
        super().__init__(cap)
        self.built = []

    def get(self, key, build):
        def counted_build():
            self.built.append(key)
            return build()

        tables = super().get(key, counted_build)
        assert self.nbytes <= self.cap
        return tables


def histogram_builds(cache):
    """(p, k, d2 mod q-1, first j) of each histogram group built; the other
    keys, (field, d2 mod q-1), are the x-side arrays."""
    return [(key[0].base.p, key[0].k, *key[1:]) for key in cache.built if len(key) == 3]


def cold_count(curve, field):
    with mock.patch.object(ffield, "_MIXED_TABLES", ffield._TableCache(ffield.FIELD_TABLE_CACHE_BYTES)):
        return count_affine(curve, field)


# 65536 cells: every field's histograms in one group; 64 cells: one to
# three histograms per group, so the larger fields have several groups
@pytest.mark.parametrize("x_block", [65536, 64])
def test_mixed_histograms_are_built_once_per_field_and_d2(monkeypatch, x_block):
    monkeypatch.setattr(ffield, "_X_BLOCK", x_block)
    fields = [find_irreducible(p, k) for p, k in [(7, 1), (7, 2), (11, 1), (11, 2), (5, 3)]]
    # y^10 = a*x^3 + m*x*y - C for three members: the same d2, other (a, m, C)
    members = [CurveEquation(d2=10, f_coefficients=(-c, 0, 0, a), m=m) for a, m, c in
               [(13, 1, 103), (25, 2, 201), (37, 3, 57)]]
    cold = {
        (i, f.base.p, f.k): cold_count(CurveEquationModP.reduce(curve, f.base.p), f)
        for i, curve in enumerate(members)
        for f in fields
    }
    cache = CountingCache(ffield.FIELD_TABLE_CACHE_BYTES)
    monkeypatch.setattr(ffield, "_MIXED_TABLES", cache)
    for i, curve in enumerate(members):
        for f in fields:
            reduced = CurveEquationModP.reduce(curve, f.base.p)
            assert count_affine(reduced, f) == cold[i, f.base.p, f.k]
        if i == 0:
            first = histogram_builds(cache)
    # every (field, group) was built by the first member and only by it
    assert histogram_builds(cache) == first
    assert len(set(cache.built)) == len(cache.built)
    groups = {(p, k): sum(1 for b in first if b[:2] == (p, k)) for p, k, _, _ in first}
    # g = gcd(9, q - 1) is 3 over F_7, F_49 and F_121 and 1 over F_11 and
    # F_125; at 64 cells F_49 and F_121 hold one histogram per group
    several = {(7, 2): 3, (11, 2): 3} if x_block == 64 else {}
    assert groups == {(7, 1): 1, (7, 2): 1, (11, 1): 1, (11, 2): 1, (5, 3): 1} | several

    # d2 = 16 and d2 = 58 are 10 mod 6 and mod 48: F_7 and F_49 share 10's entries
    for d2, f in [(16, fields[0]), (58, fields[1])]:
        curve = CurveEquationModP.reduce(CurveEquation(d2=d2, f_coefficients=(-57, 0, 0, 37), m=5), 7)
        assert count_affine(curve, f) == cold_count(curve, f) == naive_affine_count(curve, f)
    assert histogram_builds(cache) == first


def test_mixed_table_cache_holds_at_most_its_cap(monkeypatch):
    # F_49 with d2 = 7: g = gcd(6, 48) = 6 histograms, one per group of 64
    # cells (392 bytes each), and an x side of 2 * 48 int64 (768 bytes)
    monkeypatch.setattr(ffield, "_X_BLOCK", 64)
    field = find_irreducible(7, 2)
    curve = CurveEquationModP.reduce(CurveEquation(d2=7, f_coefficients=(3, 0, 0, 1), m=1), 7)
    expected = naive_affine_count(curve, field)
    groups = [(7, 2, 7, j) for j in range(6)]

    # room for the x side and two groups: each count builds every group
    # once, and the oldest one is rebuilt after it is evicted
    cache = CountingCache(768 + 2 * 392)
    monkeypatch.setattr(ffield, "_MIXED_TABLES", cache)
    assert count_affine(curve, field) == expected
    assert histogram_builds(cache) == groups
    assert 0 < cache.nbytes <= cache.cap
    assert count_affine(curve, field) == expected
    assert histogram_builds(cache) == groups + groups
    assert 0 < cache.nbytes <= cache.cap

    # a group larger than the cap is built and used, but not kept
    cache = CountingCache(391)
    monkeypatch.setattr(ffield, "_MIXED_TABLES", cache)
    for _ in range(2):
        assert count_affine(curve, field) == expected
        assert cache.nbytes == 0
    assert histogram_builds(cache) == groups + groups


def test_legendre_sum_oracle():
    # affine points of y^2 = f(x) over F_p number p + sum_x legendre(f(x)),
    # the Legendre symbol read off Euler's criterion
    from selli_cert.arith import primes_upto

    def legendre_symbol(v, p):
        r = pow(v, (p - 1) // 2, p)
        return -1 if r == p - 1 else r

    for text in ("y^2=x^3+1", "y^2=x^5-x+1"):
        curve = CurveEquation.parse(text)
        for p in primes_upto(101):
            if p < 5:
                continue
            expected = p + sum(
                legendre_symbol(
                    sum(c * x**i for i, c in enumerate(curve.f_coefficients)), p
                )
                for x in range(p)
            )
            assert count_points(curve, p, 1, infinity_count=0)[1] == expected, (text, p)


def test_subfield_count_monotone():
    # F_p solutions remain solutions in every extension
    curves = [
        CurveEquation.parse("y^2=x^3+1"),
        CurveEquation.parse("y^3=x^4+2x+1"),
        CurveEquation.parse("y^10=13x^3+x*y-102"),
    ]
    for curve in curves:
        for p in (5, 7, 11, 31):
            n1 = count_points(curve, p, 1, infinity_count=0)[1]
            n2 = count_points(curve, p, 2, infinity_count=0)[1]
            assert n1 <= n2, (curve, p)


# (p, k) up to q = 49; d2 up to 8 and m up to 15 make g = gcd(d2-1, q-1) > 1
# and m = 0 (mod p) common
@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]
    ),
    st.integers(min_value=2, max_value=8),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=5),
    st.integers(min_value=0, max_value=15),
)
@example((2, 3), 8, [1, 0, 1], 1)  # g = 7
@example((3, 3), 3, [2, 1, 0, 1], 2)  # g = 2
@example((7, 2), 7, [-3, 0, 0, 1], 1)  # g = 6
@example((3, 3), 5, [1, 1], 6)  # m = 0 (mod 3)
@example((3, 2), 3, [1, 2, 1], 0)  # m = 0, gcd(d2, q-1) = 1
@example((7, 1), 2, [-1, 0, 1], 7)  # m = 0 (mod 7), f has the roots +-1
@example((5, 2), 4, [0, 1, 0, 1], 1)  # f(0) = 0: the x = 0 fibre is {0}
@example((2, 1), 3, [1, 1], 1)  # q = 2: F_q* = {1}, and -1 = 1
@example((2, 2), 4, [1, 1, 1], 3)  # p = 2, g = 3: groups {0, 1} and {2} in 8 cells
@example((5, 2), 4, [2, 0, 0, 1], 2)  # g = 3 > 1 = 8 // 25 histograms per group
@example((3, 1), 2, [1, 1, 1], 0)  # 1 + x vanishes at x = 2 before x^2 joins
def test_count_matches_naive_oracle(pk, d2, f_coeffs, m):
    p, k = pk
    if f_coeffs[-1] == 0:
        f_coeffs = f_coeffs[:-1] + [1]
    curve = CurveEquation(d2=d2, f_coefficients=tuple(f_coeffs), m=m)
    field = find_irreducible(p, k)
    reduced = CurveEquationModP.reduce(curve, p)
    expected = naive_affine_count(reduced, field)
    ffield._FIELD_TABLES.clear()
    ffield._MIXED_TABLES.clear()
    assert count_affine(reduced, field) == expected  # builds the field's tables
    assert count_affine(reduced, field) == expected  # reads them from the cache
    # blocks of 8 cells: tables built block by block, x and u in several
    # blocks, and one or two histograms per bincount
    ffield._FIELD_TABLES.clear()
    ffield._MIXED_TABLES.clear()
    with mock.patch.object(ffield, "_X_BLOCK", 8):
        assert count_affine(reduced, field) == expected
    ffield._FIELD_TABLES.clear()
    ffield._MIXED_TABLES.clear()


def test_smoothness_good_and_bad():
    ec = CurveEquation.parse("y^2=x^3+1")
    good = is_smooth_mod_p(CurveEquationModP.reduce(ec, 5))
    assert good.smooth and good.guard_ok and good.witness is None

    cusp = CurveEquation.parse("y^2=x^3")
    bad = is_smooth_mod_p(CurveEquationModP.reduce(cusp, 5))
    assert not bad.smooth and bad.guard_ok
    assert bad.witness == (0, 0)

    node = CurveEquation.parse("y^2=x^3+x^2")
    bad2 = is_smooth_mod_p(CurveEquationModP.reduce(node, 7))
    assert not bad2.smooth
    assert bad2.witness == (0, 0)


def test_smoothness_characteristic_guard():
    ec = CurveEquation.parse("y^2=x^3+1")
    res = is_smooth_mod_p(CurveEquationModP.reduce(ec, 3))  # 3 | deg f
    assert not res.guard_ok and not res.smooth
    res2 = is_smooth_mod_p(CurveEquationModP.reduce(ec, 2))  # 2 | d2
    assert not res2.guard_ok
    thirteen = CurveEquation.parse("y^10=13x^3-102")
    res3 = is_smooth_mod_p(CurveEquationModP.reduce(thirteen, 13))  # 13 | lc(f)
    assert not res3.guard_ok


def test_smoothness_witness_is_lex_first():
    # y^2 = x^2 (x+1) mod 7 is singular exactly at (0, 0); craft a curve
    # with two singular points and check the smaller x (then y) wins
    c = CurveEquation.parse("y^2=x^4-2x^2+1")  # (x^2-1)^2: singular at x = +-1, y = 0
    res = is_smooth_mod_p(CurveEquationModP.reduce(c, 11))
    assert not res.smooth
    assert res.witness == (1, 0)  # x = 1 beats x = 10 (which is -1 mod 11)


def _naive_is_smooth(curve, *, budget=10**8):
    # the guard, then every (x, y) of the p x p grid in lexicographic order
    p, d2, m = curve.p.p, curve.d2, curve.m % curve.p.p
    fc = curve.f_coefficients
    deg = len(fc) - 1
    if (2 * d2 * deg) % p == 0 or fc[-1] % p == 0:
        return SmoothnessResult(
            smooth=False,
            witness=None,
            guard_ok=False,
            reason=f"characteristic guard: {p} divides 2*d2*deg(f)*lc(f)",
        )
    if p * p > budget:
        raise BudgetExceededError(f"smoothness scan p^2 = {p*p} exceeds budget {budget}")
    for x in range(p):
        fx = sum(c * x**i for i, c in enumerate(fc))
        fpx = sum(i * c * x ** (i - 1) for i, c in enumerate(fc) if i)
        for y in range(p):
            F = y**d2 - m * x * y - fx
            F_x = -m * y - fpx
            F_y = d2 * y ** (d2 - 1) - m * x
            if F % p == F_x % p == F_y % p == 0:
                return SmoothnessResult(
                    smooth=False, witness=(x, y), guard_ok=True, reason="singular point found"
                )
    return SmoothnessResult(smooth=True, witness=None, guard_ok=True, reason=None)


@st.composite
def smoothness_cases(draw):
    """(p, d2, f, m), about half of them with a planted singular point."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 23]))
    d2 = draw(st.integers(min_value=2, max_value=12))
    f = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6))
    m = draw(st.integers(min_value=0, max_value=2 * p))
    if draw(st.booleans()):
        # F = F_x = F_y = 0 at (x0, y0) fixes m*x0 = d2*y0^(d2-1), then
        # f(x0) and f'(x0), which a linear term alpha + beta*x adjusts
        x0 = draw(st.integers(min_value=1, max_value=p - 1))
        y0 = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=p - 1)))  # 0: m = 0
        m = d2 * y0 ** (d2 - 1) * pow(x0, -1, p) % p + p * draw(st.integers(0, 1))
        fx = sum(c * x0**i for i, c in enumerate(f))
        fpx = sum(i * c * x0 ** (i - 1) for i, c in enumerate(f) if i)
        beta = -m * y0 - fpx
        alpha = y0**d2 - m * x0 * y0 - fx - beta * x0
        f = [f[0] + alpha, f[1] + beta] + f[2:]
    if f[-1] == 0:
        f[-1] = 1
    return p, d2, f, m


@settings(max_examples=300, deadline=None)
@given(smoothness_cases())
@example((7, 2, [0, 0, 1, 1], 0))  # node of y^2 = x^3 + x^2 at (0, 0), m = 0
@example((11, 2, [1, 0, -2, 0, 1], 0))  # (x^2 - 1)^2: singular at x = 1 and x = 10
@example((5, 4, [3, 1, 1], 2))  # m != 0, smooth or not
@example((3, 2, [1, 0, 0, 1], 0))  # the guard: 3 | deg f
@example((13, 10, [-102, 0, 0, 13], 1))  # the guard: 13 | lc(f)
def test_smoothness_matches_the_grid(case):
    p, d2, f, m = case
    reduced = CurveEquationModP.reduce(CurveEquation(d2=d2, f_coefficients=tuple(f), m=m), p)
    expected = _naive_is_smooth(reduced)
    assert is_smooth_mod_p(reduced) == expected
    if expected.guard_ok:
        # past the guard, the budget refuses the scan with the same message
        with pytest.raises(BudgetExceededError) as naive:
            _naive_is_smooth(reduced, budget=p * p - 1)
        with pytest.raises(BudgetExceededError) as scan:
            is_smooth_mod_p(reduced, budget=p * p - 1)
        assert str(scan.value) == str(naive.value)
