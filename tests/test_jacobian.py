import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selli_cert import ffield
from selli_cert.errors import (
    BudgetExceededError,
    NonIntegerCoefficientError,
    ParameterError,
    WeilViolationError,
)
from selli_cert.ffield import CurveEquation, PointCountTable, build_count_table
from selli_cert.jacobian import (
    GENUS_FORMULA,
    GENUS_USER,
    GenusSpec,
    LPolynomial,
    find_certificate_primes,
    genus_superelliptic,
    jacobian_order,
    l_polynomial_from_counts,
    order_divisibility_filter,
    predict_count,
)


def table(counts, infinity=1):
    return PointCountTable(
        entries=tuple((i + 1, n) for i, n in enumerate(counts)), infinity_count=infinity
    )


def test_genus_formula():
    assert genus_superelliptic(2, 3).g == 1
    assert genus_superelliptic(2, 5).g == 2
    assert genus_superelliptic(6, 5).g == 10
    assert genus_superelliptic(10, 3).g == 9
    assert genus_superelliptic(2, 3).source == GENUS_FORMULA


def test_genus_formula_rejects_degenerate():
    with pytest.raises(ParameterError):
        genus_superelliptic(1, 3)
    with pytest.raises(ParameterError):
        genus_superelliptic(2, 1)


def test_genus_spec_validation():
    GenusSpec(g=3, source=GENUS_USER)
    with pytest.raises(ParameterError):
        GenusSpec(g=0, source=GENUS_USER)
    with pytest.raises(ParameterError):
        GenusSpec(g=2, source="guesswork")


def test_l_polynomial_genus1():
    genus = GenusSpec(g=1, source=GENUS_USER)
    lp = l_polynomial_from_counts(5, genus, table([6]))
    assert lp.coefficients == (1, 0, 5)
    assert jacobian_order(lp) == 6


def test_l_polynomial_genus2_known():
    genus = GenusSpec(g=2, source=GENUS_USER)
    lp7 = l_polynomial_from_counts(7, genus, table([7, 49]))
    assert lp7.coefficients == (1, -1, 0, -7, 49)
    assert jacobian_order(lp7) == 42
    lp11 = l_polynomial_from_counts(11, genus, table([19, 135]))
    assert lp11.coefficients == (1, 7, 31, 77, 121)
    assert jacobian_order(lp11) == 237


def test_functional_equation_holds():
    genus = GenusSpec(g=2, source=GENUS_USER)
    for p, counts in ((7, [7, 49]), (11, [19, 135])):
        lp = l_polynomial_from_counts(p, genus, table(counts))
        c = lp.coefficients
        for i in range(2 * genus.g + 1):
            assert c[2 * genus.g - i] == p ** (genus.g - i) * c[i] or i > genus.g


def test_predict_count_matches_enumeration():
    q = CurveEquation.parse("y^2=x^5-x+1")
    genus = GenusSpec(g=2, source=GENUS_USER)
    for p in (7, 11):
        t = build_count_table(q, p, [1, 2])
        lp = l_polynomial_from_counts(p, genus, t)
        n3_direct = build_count_table(q, p, [3]).entries[0][1]
        assert predict_count(lp, 3) == n3_direct
        assert predict_count(lp, 1) == t.entries[0][1]
        assert predict_count(lp, 2) == t.entries[1][1]


def test_newton_nonintegrality_detected():
    genus = GenusSpec(g=2, source=GENUS_USER)
    with pytest.raises(NonIntegerCoefficientError):
        l_polynomial_from_counts(7, genus, table([50, 49]))


def test_weil_violation_detected():
    genus = GenusSpec(g=1, source=GENUS_USER)
    # N_1 = 20 over F_5 would put the order far outside ((sqrt5-1)^2, (sqrt5+1)^2)
    with pytest.raises(WeilViolationError):
        l_polynomial_from_counts(5, genus, table([20]))
    with pytest.raises(WeilViolationError):
        l_polynomial_from_counts(5, genus, table([0]))


def test_missing_counts_rejected():
    genus = GenusSpec(g=2, source=GENUS_USER)
    with pytest.raises(ParameterError):
        l_polynomial_from_counts(7, genus, table([7]))


def test_order_divisibility_filter():
    # planted coprime pair: any hypothetical torsion order > 1 is rejected
    for n in range(2, 101):
        assert not order_divisibility_filter(n, (6, 35))
    assert order_divisibility_filter(1, (6, 35))
    assert order_divisibility_filter(3, (6, 12))
    assert not order_divisibility_filter(5, (6, 12))


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=400))
def test_order_filter_matches_definition(n):
    orders = (6, 35)
    assert order_divisibility_filter(n, orders) == all(o % n == 0 for o in orders)


def test_find_certificate_primes_ec_scan():
    """Deterministic scan on y^2 = x^3 + 1 up to 20.

    Every good prime here has even Jacobian order because x^3 + 1 has the
    rational root -1, planting a 2-torsion point; the honest outcome is
    a complete scan with no coprime pair.
    """
    ec = CurveEquation.parse("y^2=x^3+1")
    genus = GenusSpec(g=1, source=GENUS_USER)
    scan = find_certificate_primes(ec, genus, 20)
    by_p = {r.p: r for r in scan.records}
    assert set(by_p) == {2, 3, 5, 7, 11, 13, 17, 19}
    assert by_p[2].status == "skipped"  # characteristic guard: 2 | d2
    assert by_p[3].status == "skipped"  # 3 | deg f
    expected_orders = {5: 6, 7: 12, 11: 12, 13: 12, 17: 18, 19: 12}
    for p, order in expected_orders.items():
        assert by_p[p].status == "ok"
        assert by_p[p].order == order
    assert scan.certificate is None


def test_find_certificate_primes_positive_case():
    # y^2 = x^3 + x + 1 mod 5 has order 9, mod 7 has order 5: gcd 1
    ec = CurveEquation.parse("y^2=x^3+x+1")
    genus = GenusSpec(g=1, source=GENUS_USER)
    scan = find_certificate_primes(ec, genus, 20)
    cert = scan.certificate
    assert cert is not None
    assert (cert.p1, cert.p2) == (5, 7)
    assert (cert.order1, cert.order2) == (9, 5)
    assert cert.gcd_value == 1


def test_find_certificate_primes_prefers_first_pair():
    # deterministic p1-major order: the first usable coprime pair wins
    ec = CurveEquation.parse("y^2=x^3+x+1")
    genus = GenusSpec(g=1, source=GENUS_USER)
    scan = find_certificate_primes(ec, genus, 50)
    assert (scan.certificate.p1, scan.certificate.p2) == (5, 7)


def test_over_budget_table_is_refused_before_any_count(monkeypatch):
    calls = []
    count_affine = ffield.count_affine

    def counting(curve, field, **kw):
        calls.append((field.base.p, field.k))
        return count_affine(curve, field, **kw)

    monkeypatch.setattr(ffield, "count_affine", counting)
    # y^14 = 25x^3 + x*y - 201 (paper-ex2 member (25, 2, 3, 14)): at p = 11
    # k = 1, 2 fit the budget and k = 3 does not (q^2 = 1331^2 > 10^6)
    curve = CurveEquation.parse("y^14=25x^3+x*y-201")
    reason = "enumeration work 1771561 exceeds budget 1000000 for q = 1331"
    with pytest.raises(BudgetExceededError) as refused:
        build_count_table(curve, 11, range(1, 4), budget=10**6)
    assert (str(refused.value), calls) == (reason, [])

    scan = find_certificate_primes(curve, GenusSpec(g=3, source=GENUS_USER), 11, budget=10**6)
    record = {r.p: r for r in scan.records}[11]
    assert (record.status, record.reason) == ("skipped", reason)
    assert calls == []
    # within budget the same table is counted, one call per k
    build_count_table(curve, 11, range(1, 3), budget=10**6)
    assert calls == [(11, 1), (11, 2)]
