import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selli_cert.errors import BudgetExceededError, ParameterError
from selli_cert.ffield import (
    CurveEquation,
    CurveEquationModP,
    ExtField,
    PrimeField,
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


@pytest.mark.parametrize("pk", [(2, 1), (2, 3), (3, 1), (5, 2), (7, 3), (13, 2)])
def test_log_tables_cover_the_group(pk):
    from selli_cert.ffield import _log_tables, _pack

    field = find_irreducible(*pk)
    q = field.q
    exp, log = _log_tables(field)
    packed = _pack(exp, field.base.p)
    assert sorted(packed.tolist()) == list(range(1, q))
    assert (log[packed] == list(range(q - 1))).all()


def test_legendre_sum_oracle():
    # affine points of y^2 = f(x) over F_p number p + sum_x legendre(f(x))
    from selli_cert.arith import legendre_symbol, primes_upto

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
def test_count_matches_naive_oracle(pk, d2, f_coeffs, m):
    p, k = pk
    if f_coeffs[-1] == 0:
        f_coeffs = f_coeffs[:-1] + [1]
    curve = CurveEquation(d2=d2, f_coefficients=tuple(f_coeffs), m=m)
    field = find_irreducible(p, k)
    reduced = CurveEquationModP.reduce(curve, p)
    got = count_affine(reduced, field)
    assert got == naive_affine_count(reduced, field)


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
