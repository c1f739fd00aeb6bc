from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selli_cert.errors import BudgetExceededError, HypothesisError, ParameterError
from selli_cert.family import (
    ZERO_REASON,
    CandidateSet,
    FamilyParams,
    delta_of_y,
    discriminant_profile,
    eliminate_points,
    elimination_polynomial,
    fixed_delta_candidates,
    validate_params,
    y_bound,
    y_candidates,
)
from selli_cert.polyring import IntPolynomial, discriminant


def test_validate_derives_b():
    p = validate_params(13, 1, 3, 10)
    assert p.b == 101  # 2^3 * 13 - 3
    assert p.d == 5
    assert not p.b_explicit
    assert validate_params(37, 1, 3, 10).b == 293
    assert validate_params(25, 2, 3, 14).b == 197


def test_validate_b_override_power_of_three():
    p = validate_params(13, 1, 3, 10, b_override=104 - 27)  # 2^3*13 - 3^3
    assert p.b == 77
    assert p.b_explicit


def test_validate_rejects_even_power_of_three_override():
    with pytest.raises(HypothesisError) as exc:
        validate_params(13, 1, 3, 10, b_override=104 - 9)  # 3^2: even exponent
    assert any(code == "H4" for code, _ in exc.value.violations)


def test_validate_collects_all_violations():
    with pytest.raises(HypothesisError) as exc:
        validate_params(14, 1, 4, 9)
    codes = {code for code, _ in exc.value.violations}
    assert {"H1", "H2", "H3"} <= codes


def test_validate_violation_codes():
    cases = [
        ((13, 1, 5, 10), "H1"),  # d1 not a multiple of 3
        ((13, 1, 3, 8), "H2"),  # d = 4 not prime
        ((13, 1, 9, 6), "H2"),  # gcd(9, 3) = 3
        ((26, 1, 3, 10), "H3"),
    ]
    for args, code in cases:
        with pytest.raises(HypothesisError) as exc:
            validate_params(*args)
        assert any(c == code for c, _ in exc.value.violations), (args, code)


def test_validate_h5_degenerate():
    # m^2 + b = 0 kills the discriminant identically
    with pytest.raises(HypothesisError) as exc:
        validate_params(13, 2, 3, 10, b_override=-4)
    codes = {code for code, _ in exc.value.violations}
    # the contrived b also breaks the 2^d1*a - 3^m' shape
    assert "H5" in codes


def test_profile_standard_example():
    p = validate_params(13, 1, 3, 10)
    prof = discriminant_profile(p, "standard")
    assert prof.c3 == -52
    assert prof.c0 == -47473452
    assert prof.y_degree == 3


def test_profile_conventions_differ_only_in_lead():
    p = validate_params(25, 2, 3, 14)
    std = discriminant_profile(p, "standard")
    ex2 = discriminant_profile(p, "paper-ex2")
    assert std.c3 == -800  # -4 * 25 * 2^3
    assert ex2.c3 == -100  # -4 * 25 * 1
    assert std.c0 == ex2.c0 == -681766875


def test_profile_rejects_unknown_convention():
    p = validate_params(13, 1, 3, 10)
    with pytest.raises(ParameterError):
        discriminant_profile(p, "nonsense")


def test_delta_of_y_closed_form():
    p = validate_params(13, 1, 3, 10)
    prof = discriminant_profile(p, "standard")
    assert delta_of_y(prof, 1) == -52 - 47473452
    assert delta_of_y(prof, 2) == -52 * 8 - 47473452
    assert delta_of_y(prof, -1) == 52 - 47473452


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([3, 9, 15, 21]),
    st.sampled_from(["standard", "paper-ex2"]),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=1000),
    st.booleans(),
)
@example(9, "standard", 4, 39, 17, True)
@example(15, "paper-ex2", 0, 2, 1000, False)
@example(15, "standard", 0, 2, 3, True)
def test_delta_of_y_matches_resultant_discriminant(d1, convention, m, k, y, negate):
    """Delta(y) equals the Sylvester-matrix discriminant in x of
    a*x^d1 + s*y*x - (m^2 + b), built here from the family's definition."""
    params = validate_params(1 + 12 * k, m, d1, 22)
    y = -y if negate else y
    s = m if convention == "standard" else 1
    coeffs = [0] * (d1 + 1)
    coeffs[0] = -(m * m + params.b)
    coeffs[1] = s * y
    coeffs[d1] = params.a
    expected = discriminant(IntPolynomial.from_coefficients(coeffs))
    assert delta_of_y(discriminant_profile(params, convention), y) == expected


def test_y_bound_examples():
    cases = [
        ((13, 1, 3, 10), "standard", 5),
        ((37, 1, 3, 10), "standard", 8),
        ((25, 2, 3, 14), "standard", 4),
        ((25, 2, 3, 14), "paper-ex2", 4),
    ]
    for args, conv, expected in cases:
        prof = discriminant_profile(validate_params(*args), conv)
        assert y_bound(prof) == expected, (args, conv)


def test_y_bound_is_tight():
    # every |y| > bound must satisfy |y|^d2 > |Delta(y)|; the bound itself may not
    for args in [(13, 1, 3, 10), (37, 1, 3, 10), (25, 2, 3, 14)]:
        prof = discriminant_profile(validate_params(*args), "standard")
        t = y_bound(prof)
        d2 = prof.params.d2
        for y in (t + 1, t + 2, -(t + 1)):
            assert abs(y) ** d2 > abs(delta_of_y(prof, y))
        assert t == 0 or abs(t) ** d2 <= abs(prof.c3) * t**3 + abs(prof.c0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=50))
def test_y_bound_boundary_sweep(offset):
    prof = discriminant_profile(validate_params(13, 1, 3, 10), "standard")
    t = y_bound(prof)
    y = t + offset
    assert y**prof.params.d2 > abs(delta_of_y(prof, y))
    assert y**prof.params.d2 > abs(delta_of_y(prof, -y))


def test_y_candidates_survivors():
    prof = discriminant_profile(validate_params(13, 1, 3, 10), "standard")
    cs = y_candidates(prof)
    assert cs.y_max == 5
    assert cs.surviving == (-1, 1)
    assert len(cs.candidates) == 10  # -5..5 without 0
    assert cs.boundary_y == 6
    assert cs.boundary_lhs == 6**10
    assert cs.boundary_lhs > cs.boundary_rhs
    assert "0^d2" in cs.zero_reason


def test_y_candidates_divisibility_is_signed_exact():
    prof = discriminant_profile(validate_params(13, 1, 3, 10), "standard")
    cs = y_candidates(prof)
    for rec in cs.candidates:
        assert rec["passes"] == (rec["delta"] % rec["y"] ** 10 == 0)
        assert rec["delta"] == delta_of_y(prof, rec["y"])


def test_y_candidates_symmetric_box():
    for args in [(13, 1, 3, 10), (37, 1, 3, 10), (25, 2, 3, 14)]:
        cs = y_candidates(discriminant_profile(validate_params(*args), "standard"))
        ys = [r["y"] for r in cs.candidates]
        assert ys == sorted(ys)
        assert set(ys) == {y for y in range(-cs.y_max, cs.y_max + 1) if y != 0}


def _naive_y_candidates(profile, *, budget=10**8):
    # one y at a time over the whole box, forming Delta(y) and y^d2 for each
    d2 = profile.params.d2
    y_max = y_bound(profile)
    if 2 * y_max > budget:
        raise BudgetExceededError(
            f"candidate box of {2 * y_max} values of y exceeds the budget {budget}"
        )
    records = []
    for y in range(-y_max, y_max + 1):
        if y == 0:
            continue
        value = delta_of_y(profile, y)
        records.append({"y": y, "delta": value, "passes": value % y**d2 == 0})
    witness = y_max + 1
    return CandidateSet(
        y_max=y_max,
        candidates=tuple(records),
        surviving=tuple(r["y"] for r in records if r["passes"]),
        boundary_y=witness,
        boundary_lhs=witness**d2,
        boundary_rhs=max(abs(delta_of_y(profile, s * witness)) for s in (1, -1)),
        zero_reason=ZERO_REASON,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 4), (3, 10), (3, 14), (3, 22), (3, 26), (9, 22), (9, 26)]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([None, 1, 3, 5]),
    st.sampled_from(["standard", "paper-ex2"]),
)
@example((9, 14), 30, 0, None, "standard")  # (361, 0, 9, 14): eight survivors
@example((9, 14), 30, 0, None, "paper-ex2")
def test_y_candidates_match_the_per_y_loop(degrees, k, m, exponent, convention):
    d1, d2 = degrees
    a = 1 + 12 * k
    b = None if exponent is None else 2**d1 * a - 3**exponent
    try:
        params = validate_params(a, m, d1, d2, b_override=b)
    except HypothesisError:
        assume(False)
    profile = discriminant_profile(params, convention)
    assume(y_bound(profile) <= 2000 or (a, d1, d2) == (361, 9, 14))
    expected = _naive_y_candidates(profile)
    assert y_candidates(profile) == expected
    # the budget is checked before the box, with the same message
    box = 2 * expected.y_max
    assert y_candidates(profile, budget=box) == expected
    with pytest.raises(BudgetExceededError) as naive:
        _naive_y_candidates(profile, budget=box - 1)
    with pytest.raises(BudgetExceededError) as paired:
        y_candidates(profile, budget=box - 1)
    assert str(paired.value) == str(naive.value)


def test_y_candidates_keep_survivors_beyond_one():
    prof = discriminant_profile(validate_params(361, 0, 9, 14), "standard")
    assert y_candidates(prof).surviving == (-57, -19, -3, -1, 1, 3, 19, 57)


def test_fixed_delta_candidates_known():
    assert fixed_delta_candidates(2869, 10) == [-1, 1]
    assert fixed_delta_candidates(57600, 6) == [-2, -1, 1, 2]
    assert fixed_delta_candidates(1, 4) == [-1, 1]
    assert fixed_delta_candidates(-57600, 6) == [-2, -1, 1, 2]


def test_fixed_delta_candidates_zero_rejected():
    with pytest.raises(ParameterError):
        fixed_delta_candidates(0, 6)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 4, 6, 10]))
def test_fixed_delta_candidates_exact(delta, d2):
    got = fixed_delta_candidates(delta, d2)
    lim = 1
    while (lim + 1) ** d2 <= delta:
        lim += 1
    expect = sorted(
        y for y in range(-lim, lim + 1) if y != 0 and delta % y**d2 == 0
    )
    assert got == expect


def test_elimination_polynomial_coefficients():
    p = validate_params(13, 1, 3, 10)
    f = elimination_polynomial(p, 1, "standard")
    assert f.coefficients == (-103, 1, 0, 13)  # 13x^3 + x - 103
    g = elimination_polynomial(p, -1, "standard")
    assert g.coefficients == (-103, -1, 0, 13)


def test_elimination_polynomial_convention():
    p = validate_params(25, 2, 3, 14)
    std = elimination_polynomial(p, 1, "standard")
    ex2 = elimination_polynomial(p, 1, "paper-ex2")
    assert std.coefficients == (-202, 2, 0, 25)
    assert ex2.coefficients == (-202, 1, 0, 25)


def test_eliminate_points_examples():
    p13 = validate_params(13, 1, 3, 10)
    recs = eliminate_points(p13, y_candidates(discriminant_profile(p13)).surviving)
    assert [(r.y0, r.eliminated) for r in recs] == [(-1, True), (1, True)]

    p25 = validate_params(25, 2, 3, 14)
    recs = eliminate_points(
        p25, y_candidates(discriminant_profile(p25, "paper-ex2")).surviving, "paper-ex2"
    )
    by_y0 = {r.y0: r for r in recs}
    assert by_y0[-1].eliminated
    assert not by_y0[1].eliminated
    assert by_y0[1].rational_x == (Fraction(2),)


def test_mutation_planted_point_blocks_triviality():
    """A curve carrying a genuine rational point must never be declared
    trivial by elimination.  b = 12 puts (1, 1) on y^10 = 13x^3 + xy - 13."""
    from selli_cert.certificates import build_torsion_certificate

    params = FamilyParams(a=13, m=1, d1=3, d2=10, b=12, d=5, b_explicit=True)
    cert = build_torsion_certificate(params)
    assert cert.outcome.conclusion != "TRIVIAL_BY_POINT_ELIMINATION"
    by_y0 = {r.y0: r for r in cert.elimination}
    assert 1 in by_y0 and not by_y0[1].eliminated
    assert Fraction(1) in by_y0[1].rational_x
