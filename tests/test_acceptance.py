"""Acceptance gate: one test per criterion, exact values, stated runtime caps.

Each test freezes independently derived oracle values and checks the
pipeline against them bit for bit.  Runtime caps are asserted with a
monotonic clock around the work under test.
"""

import json
import time
from fractions import Fraction

import pytest

from selli_cert.certificates import (
    build_dio_certificate,
    build_torsion_certificate,
    canonical_json,
    replication_evidence,
)
from selli_cert.cli import main as cli_main
from selli_cert.diophantine import (
    DioParams,
    bounded_search,
    qr_law_check,
    validate_dio_params,
)
from selli_cert.family import validate_params
from selli_cert.ffield import CurveEquation, build_count_table, count_points
from selli_cert.jacobian import (
    GENUS_USER,
    GenusSpec,
    find_certificate_primes,
    jacobian_order,
    l_polynomial_from_counts,
    order_divisibility_filter,
    predict_count,
)
from selli_cert.polyring import IntPolynomial, discriminant


class clocked:
    def __init__(self, cap_seconds):
        self.cap = cap_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.cap, f"runtime {self.elapsed:.2f}s over cap {self.cap}s"
        return False


def test_criterion_01_family_a13():
    with clocked(1.0):
        params = validate_params(13, 1, 3, 10)
        cert = build_torsion_certificate(params, "standard")
    assert (cert.profile.c3, cert.profile.c0) == (-52, -47473452)
    assert cert.candidate_set.y_max == 5  # box {-5..5}; |y| >= 6 impossible
    assert cert.candidate_set.boundary_y == 6
    assert cert.candidate_set.surviving == (-1, 1)
    cubics = {r.y0: r.reduced_cubic.coefficients for r in cert.elimination}
    assert cubics == {1: (-103, 1, 0, 13), -1: (-103, -1, 0, 13)}
    assert all(r.rational_x == () for r in cert.elimination)
    assert cert.conclusion == "TRIVIAL_BY_POINT_ELIMINATION"


def test_criterion_02_family_a37():
    with clocked(1.0):
        params = validate_params(37, 1, 3, 10)
        cert = build_torsion_certificate(params, "standard")
    assert (cert.profile.c3, cert.profile.c0) == (-148, -3194933868)
    assert cert.candidate_set.y_max == 8
    assert cert.candidate_set.surviving == (-1, 1)
    assert all(r.eliminated for r in cert.elimination)
    assert cert.conclusion == "TRIVIAL_BY_POINT_ELIMINATION"


def test_criterion_03_family_a25_conventions():
    with clocked(1.0):
        params = validate_params(25, 2, 3, 14)
        ex2 = build_torsion_certificate(params, "paper-ex2")
        std = build_torsion_certificate(params, "standard")
    assert (ex2.profile.c3, ex2.profile.c0) == (-100, -681766875)
    assert ex2.candidate_set.y_max == 4
    assert ex2.candidate_set.surviving == (-1, 1)
    cubics = {r.y0: r.reduced_cubic.coefficients for r in ex2.elimination}
    assert cubics == {1: (-202, 1, 0, 25), -1: (-202, -1, 0, 25)}
    # rational-root candidates are p/q with p | 202 and q | 25; the search
    # finds exactly one such root, x = 2 at y0 = 1, so this curve member
    # genuinely carries the point (2, 1) and elimination cannot close it
    by_y0 = {r.y0: r for r in ex2.elimination}
    assert by_y0[-1].rational_x == ()
    assert by_y0[1].rational_x == (Fraction(2),)
    assert 202 % 2 == 0 and 25 % 1 == 0
    # the standard-convention run completes with its own discriminant and
    # carries the divergence flag
    assert (std.profile.c3, std.profile.c0) == (-800, -681766875)
    assert std.conclusion == "TRIVIAL_BY_POINT_ELIMINATION"
    assert "xcoeff-convention-divergence" in std.discrepancies


def test_criterion_04_quintic_discriminant(capsys):
    with clocked(1.0):
        f = IntPolynomial.from_coefficients([1, -1, 0, 0, 0, 1])
        value = discriminant(f)
        code = cli_main(
            ["poly-disc", "--coeffs", "1,-1,0,0,0,1", "--expect", "57600"]
        )
        stdout = capsys.readouterr().out
    assert value == 256 * (-1) ** 5 + 3125 * 1**4 == 2869
    assert code == 2
    assert json.loads(stdout)["matches"] is False


def test_criterion_05_bounded_search():
    with clocked(10.0):
        for a, d1, d2 in ((13, 3, 2), (25, 3, 4), (37, 3, 2)):
            params = validate_dio_params(a, d1, d2)
            assert bounded_search(params, 30) == [], (a, d1, d2)
        # mutation: moving b by the right offset plants (2, 1, 2)
        planted = bounded_search(DioParams(a=13, b=13 * 8 - 1 - 4 + 4, d1=3, d2=2), 30)
        assert (2, 1, 2) in planted


def test_criterion_06_mod4_and_parity(capsys):
    with clocked(1.0):
        tables, discrepancies = replication_evidence(200)
        code = cli_main(
            [
                "check-diophantine", "--a", "13", "--d1", "3", "--d2", "2",
                "--modulus-bound", "48", "--qr-bound", "200",
            ]
        )
        stdout = capsys.readouterr().out
    assert tables["sum_mod4"]["attained"] == [0, 1, 2]
    assert tables["sum_mod4"]["matches"]
    assert tables["parity"]["solutions"] == [[0, 0]]
    assert tables["parity"]["matches"]
    # the difference-table claim diverges from its own tabulation
    # (3 = 0 - 1 mod 4 is attained), and that divergence surfaces as exit 2
    assert tables["diff_mod4"]["attained"] == [0, 1, 3]
    assert discrepancies == ["mod4-difference-table"]
    assert code == 2
    assert "mod4-difference-table" in json.loads(stdout)["discrepancies"]


def test_criterion_07_qr_law():
    with clocked(5.0):
        assert qr_law_check(10**4)


def test_criterion_08_genus1_order():
    with clocked(1.0):
        ec = CurveEquation.parse("y^2=x^3+1")
        counts = build_count_table(ec, 5, [1])
        lp = l_polynomial_from_counts(5, GenusSpec(g=1, source=GENUS_USER), counts)
    assert counts.entries == ((1, 6),)
    assert lp.coefficients == (1, 0, 5)
    assert jacobian_order(lp) == 6 == counts.entries[0][1]


def exact_weil_interval_contains(order, a_term, b_term, p):
    # (A - B sqrt p, A + B sqrt p) membership by squared comparison
    below = a_term - order
    lower_ok = below < 0 or below * below < b_term * b_term * p
    above = order - a_term
    upper_ok = above < 0 or above * above < b_term * b_term * p
    return lower_ok and upper_ok


def test_criterion_09_genus2_three_field_consistency():
    with clocked(60.0):
        q = CurveEquation.parse("y^2=x^5-x+1")
        genus = GenusSpec(g=2, source=GENUS_USER)
        expected = {
            7: ((1, -1, 0, -7, 49), 322, (92, 32)),
            11: ((1, 7, 31, 77, 121), 1255, (188, 48)),
        }
        for p, (lcoeffs, n3, (a_term, b_term)) in expected.items():
            table = build_count_table(q, p, [1, 2], threads=2)
            lp = l_polynomial_from_counts(p, genus, table)
            assert lp.coefficients == lcoeffs, p
            direct = count_points(q, p, 3, threads=2)[1]
            assert direct == n3, p
            assert predict_count(lp, 3) == direct, p
            c = lp.coefficients
            for i in range(3):
                assert c[4 - i] == p ** (2 - i) * c[i], (p, i)  # functional equation
            # (A, B) freeze (sqrt(p)+-1)^4 = A +- B sqrt(p)
            assert (p + 1) ** 2 + 4 * p == a_term and 4 * (p + 1) == b_term
            assert exact_weil_interval_contains(jacobian_order(lp), a_term, b_term, p)


def test_criterion_10_certificate_prime_scan():
    with clocked(5.0):
        ec = CurveEquation.parse("y^2=x^3+1")
        scan = find_certificate_primes(ec, GenusSpec(g=1, source=GENUS_USER), 20)
        # per-prime enumeration oracle, computed independently right here
        oracle = {}
        for p in (5, 7, 11, 13, 17, 19):
            oracle[p] = 1 + sum(
                1
                for x in range(p)
                for y in range(p)
                if (y * y - (x**3 + 1)) % p == 0
            )
    assert oracle == {5: 6, 7: 12, 11: 12, 13: 12, 17: 18, 19: 12}
    computed = {r.p: r.order for r in scan.records if r.status == "ok"}
    assert computed == oracle  # scan consistent with the oracle
    # no pair of these orders is coprime, so the honest scan outcome is
    # NOT_FOUND; the divisibility filter is exercised against a planted
    # coprime pair and rejects every candidate torsion order
    assert scan.certificate is None
    assert all(not order_divisibility_filter(n, (6, 35)) for n in range(2, 101))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: x^3 + 1 has the rational root -1, so the "
        "curve carries the 2-torsion point (-1, 0) and every good-prime "
        "Jacobian order p <= 20 is even (6, 12, 12, 12, 18, 12); no coprime "
        "pair exists for this curve and the deterministic scan honestly "
        "returns none"
    ),
)
def test_criterion_10_literal_coprime_pair():
    ec = CurveEquation.parse("y^2=x^3+1")
    scan = find_certificate_primes(ec, GenusSpec(g=1, source=GENUS_USER), 20)
    assert scan.certificate is not None


def test_criterion_11_thread_determinism(capsys, tmp_path):
    runs = {}
    for threads in ("1", "8"):
        outputs = []
        path = tmp_path / f"t{threads}"
        path.mkdir()
        jobs = [
            ["analyze-curve", "--a", "13", "--m", "1", "--d1", "3", "--d2", "10"],
            ["analyze-curve", "--a", "37", "--m", "1", "--d1", "3", "--d2", "10"],
            ["analyze-curve", "--a", "25", "--m", "2", "--d1", "3", "--d2", "14"],
            [
                "analyze-curve", "--a", "25", "--m", "2", "--d1", "3", "--d2", "14",
                "--convention", "paper-ex2",
            ],
            ["count-points", "--curve", "y^2=x^5-x+1", "--p", "11", "--k", "3"],
            ["count-points", "--curve", "y^10=13x^3+x*y-102", "--p", "7"],
            [
                "check-diophantine", "--a", "13", "--d1", "3", "--d2", "2",
                "--modulus-bound", "48", "--qr-bound", "200",
            ],
            ["jacobian-order", "--p", "7", "--g", "2", "--counts", "7,49"],
            ["poly-disc", "--coeffs", "1,-1,0,0,0,1"],
            ["fixed-delta-candidates", "--delta", "57600", "--d2", "6"],
        ]
        for argv in jobs:
            extra = (
                ["--threads", threads]
                if argv[0] in ("analyze-curve", "count-points")
                else []
            )
            code = cli_main(argv + extra)
            captured = capsys.readouterr()
            assert code in (0, 2), (argv, captured.err)
            outputs.append(captured.out)
        runs[threads] = outputs
    assert runs["1"] == runs["8"]
    for text in runs["1"]:
        assert text == canonical_json(json.loads(text))


def test_acceptance_certificates_reverify(tmp_path):
    """End-to-end guard: the gate's own artifacts pass offline re-checking."""
    from selli_cert.verify import verify_certificate

    params = validate_params(13, 1, 3, 10)
    doc = build_torsion_certificate(params).to_dict()
    assert verify_certificate(json.loads(canonical_json(doc))) == []
    dio = build_dio_certificate(
        validate_dio_params(13, 3, 2), modulus_bound=48, qr_bound=200
    ).to_dict()
    assert verify_certificate(json.loads(canonical_json(dio))) == []
