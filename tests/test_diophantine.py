import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selli_cert.diophantine import (
    DioParams,
    Mod4Tables,
    bounded_search,
    eval_equation,
    eval_lhs,
    mod4_obstruction,
    obstruction_sweep,
    parity_claim_check,
    qr_law_check,
    residue_obstruction,
    search_box,
    validate_dio_params,
)
from selli_cert.errors import BudgetExceededError, HypothesisError, ParameterError

PARAM_TRIPLES = [(13, 3, 2), (25, 3, 4), (37, 3, 2)]


def test_validate_derives_b():
    assert validate_dio_params(13, 3, 2).b == 101
    assert validate_dio_params(25, 3, 4).b == 197
    assert validate_dio_params(37, 3, 2).b == 293


def test_validate_corollary_mode():
    p = validate_dio_params(13, 3, 2, b_mode="corollary1", m_prime=3)
    assert p.b == 2**3 * 13 - 27
    with pytest.raises(HypothesisError) as exc:
        validate_dio_params(13, 3, 2, b_mode="corollary1", m_prime=2)
    assert any(code == "D5" for code, _ in exc.value.violations)


def test_validate_violation_codes():
    cases = [
        ((14, 3, 2), "D1"),
        ((13, 5, 2), "D2"),
        ((13, 3, 3), "D3"),
        ((13, 9, 6), "D4"),
    ]
    for args, code in cases:
        with pytest.raises(HypothesisError) as exc:
            validate_dio_params(*args)
        assert any(c == code for c, _ in exc.value.violations), (args, code)


def test_eval_lhs():
    assert eval_lhs(13, 101, 3, 2, 0, 0, 0) == -101
    assert eval_lhs(13, 101, 3, 2, 2, 0, 0) == 3
    assert eval_lhs(25, 197, 3, 4, 1, 1, 1) == -173


def test_eval_equation_uses_params():
    p = validate_dio_params(13, 3, 2)
    assert eval_equation(p, 0, 0, 0) == -101
    assert eval_equation(p, 2, 0, 0) == 3


def test_bounded_search_empty_for_all_triples():
    for a, d1, d2 in PARAM_TRIPLES:
        params = validate_dio_params(a, d1, d2)
        assert bounded_search(params, 30) == [], (a, d1, d2)


def test_search_matches_bruteforce_small():
    for a, d1, d2 in PARAM_TRIPLES:
        params = validate_dio_params(a, d1, d2)
        fast = search_box(params.a, params.b, d1, d2, 8)
        slow = sorted(
            (x, y, z)
            for x in range(-8, 9)
            for y in range(-8, 9)
            for z in range(-8, 9)
            if eval_lhs(params.a, params.b, d1, d2, x, y, z) == 0
        )
        assert fast == slow


def test_search_planted_root_fires():
    # b chosen so (2, 1, 2) solves a x^3 - y^2 - z^2 + xyz - b = 0
    a = 13
    b = a * 8 - 1 - 4 + 4
    found = search_box(a, b, 3, 2, 8)
    assert (2, 1, 2) in found


def test_search_solution_set_closed_under_negation():
    # (x, y, z) -> (x, -y, -z) preserves every term
    a, b = 13, 103
    sols = set(search_box(a, b, 3, 2, 10))
    assert sols == {(x, -y, -z) for x, y, z in sols}


def test_search_x_class_restriction():
    a, b = 13, 103
    all_sols = search_box(a, b, 3, 2, 10)
    classed = search_box(a, b, 3, 2, 10, x_class=(0, 2))
    assert classed == [s for s in all_sols if s[0] % 2 == 0]


def test_search_box_validation():
    with pytest.raises(ParameterError):
        search_box(13, 101, 3, 2, 0)


def test_mod4_tables():
    t = mod4_obstruction()
    assert t.squares_attained == (0, 1)
    assert t.sum_attained == (0, 1, 2)
    assert t.sum_obstructs_3
    assert t.diff_attained == (0, 1, 3)
    assert not t.diff_obstructs_3  # 3 = 0 - 1 mod 4 is attained
    assert len(t.sum_table) == 16 and len(t.diff_table) == 16


def test_parity_table():
    t = parity_claim_check()
    assert t.solutions == ((0, 0),)
    assert t.only_origin


def test_qr_law_holds():
    assert qr_law_check(10**4)
    with pytest.raises(ParameterError):
        qr_law_check(3)


def test_residue_obstruction_mod4():
    # x = 0 mod 2 certifies at modulus 4; x = 1 mod 4 does not
    for a, d1, d2 in PARAM_TRIPLES:
        params = validate_dio_params(a, d1, d2)
        cert = residue_obstruction(params, 4, (0, 2))
        assert cert is not None
        assert cert.exhaustive
        assert cert.tuples_checked == 2 * 16
        assert residue_obstruction(params, 4, (1, 4)) is None


def test_residue_obstruction_mod12_known_class():
    # at modulus 12 the only solvable x are 5 and 9; the class 5 mod 12
    # therefore does not certify
    params = validate_dio_params(13, 3, 2)
    assert residue_obstruction(params, 12, (5, 12)) is None
    assert residue_obstruction(params, 12, (4, 12)) is not None


def test_residue_obstruction_validation():
    params = validate_dio_params(13, 3, 2)
    with pytest.raises(ParameterError):
        residue_obstruction(params, 12, (0, 5))  # 5 does not divide 12
    with pytest.raises(BudgetExceededError):
        residue_obstruction(params, 1200, (0, 12))


def test_solvable_x_mod12_oracle():
    # brute force: which x mod 12 admit any (y, z) solving the congruence
    for a, d1, d2 in PARAM_TRIPLES:
        params = validate_dio_params(a, d1, d2)
        solvable = {
            x
            for x in range(12)
            for y in range(12)
            for z in range(12)
            if eval_lhs(params.a, params.b, d1, d2, x, y, z) % 12 == 0
        }
        assert solvable == {5, 9}, (a, d1, d2)


def test_obstruction_sweep_all_triples():
    for a, d1, d2 in PARAM_TRIPLES:
        params = validate_dio_params(a, d1, d2)
        sweep = obstruction_sweep(params, 360)
        expected = tuple(None if r in (5, 9) else 12 for r in range(12))
        assert sweep.smallest_modulus == expected, (a, d1, d2)
        for r in range(12):
            cert = sweep.certificates[r]
            if r in (5, 9):
                assert cert is None
            else:
                assert cert.modulus == 12
                assert cert.x_class == (r, 12)
                assert cert.tuples_checked == 12 * 12


def test_sweep_agrees_with_residue_obstruction():
    params = validate_dio_params(13, 3, 2)
    sweep = obstruction_sweep(params, 48)
    for r in range(12):
        expected = residue_obstruction(params, 12, (r, 12))
        if sweep.smallest_modulus[r] == 12:
            assert expected is not None
        else:
            assert expected is None


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PARAM_TRIPLES), st.sampled_from([12, 24, 36, 48]))
def test_solvable_flags_match_bruteforce(triple, modulus):
    a, d1, d2 = triple
    params = validate_dio_params(a, d1, d2)
    for r in range(0, modulus, 7):  # spot-check a spread of classes
        cert = residue_obstruction(params, modulus, (r, modulus))
        brute_solvable = any(
            eval_lhs(params.a, params.b, d1, d2, r, y, z) % modulus == 0
            for y in range(modulus)
            for z in range(modulus)
        )
        assert (cert is None) == brute_solvable


def _cube_solvable_x(a, b, d1, d2, modulus):
    """x in Z/M admitting some (y, z) in (Z/M)^2, by enumerating the whole
    cube (Z/M)^3 directly; independent of the engine's prime-power split."""
    M = modulus
    v = np.arange(M, dtype=np.int64)
    y_pow = np.array([pow(y, d2, M) for y in range(M)], dtype=np.int64)
    yz = (v[:, None] * v[None, :]) % M
    base = (y_pow[:, None] + (v * v % M)[None, :]) % M  # y^d2 + z^2
    solvable = set()
    for x in range(M):
        values = (a * pow(x, d1, M) - b - base + x * yz) % M
        if (values == 0).any():
            solvable.add(x)
    return solvable


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-40, 40),
    b=st.integers(-300, 300),
    d1=st.integers(1, 8),
    d2=st.integers(1, 8),
    bound=st.integers(0, 120),
    data=st.data(),
)
@example(a=13, b=101, d1=3, d2=2, bound=5, data=None)  # bound < 12
@example(a=35, b=-125, d1=7, d2=2, bound=50, data=None)  # minimal modulus 24
@example(a=-8, b=-72, d1=6, d2=4, bound=120, data=None)  # minimal moduli 48, 108
def test_obstruction_engine_matches_cube_oracle(a, b, d1, d2, bound, data):
    params = DioParams(a=a, b=b, d1=d1, d2=d2)
    expected: list[int | None] = [None] * 12
    for modulus in range(12, bound + 1, 12):
        solvable = _cube_solvable_x(a, b, d1, d2, modulus)
        for r in range(12):
            if expected[r] is None and solvable.isdisjoint(range(r, modulus, 12)):
                expected[r] = modulus
    sweep = obstruction_sweep(params, bound)
    assert sweep.modulus_bound == bound
    assert sweep.smallest_modulus == tuple(expected)
    for r, cert in enumerate(sweep.certificates):
        if expected[r] is None:
            assert cert is None
        else:
            M = expected[r]
            assert (cert.modulus, cert.x_class) == (M, (r, 12))
            assert cert.tuples_checked == (M // 12) * M * M

    if data is None:
        return
    modulus = data.draw(st.integers(1, 120), label="modulus")
    c = data.draw(
        st.sampled_from([c for c in range(1, modulus + 1) if modulus % c == 0]),
        label="c",
    )
    r = data.draw(st.integers(-modulus, modulus), label="r")
    solvable = _cube_solvable_x(a, b, d1, d2, modulus)
    cert = residue_obstruction(params, modulus, (r, c))
    assert (cert is None) == any(x % c == r % c for x in solvable)
    if cert is not None:
        assert cert.x_class == (r % c, c)
        assert cert.tuples_checked == (modulus // c) * modulus * modulus


def test_sweep_pinned_large_minimal_moduli():
    # 108 = lcm(12, 27) and 192 = lcm(12, 64): classes closed by a single
    # higher prime power; the moduli were confirmed by full (Z/M)^3 sweeps
    sweep = obstruction_sweep(DioParams(a=-8, b=-72, d1=6, d2=4), 120)
    assert sweep.smallest_modulus == (
        48, None, None, 108, 48, None, 108, None, 48, 108, None, None
    )
    assert sweep.certificates[3].tuples_checked == 9 * 108 * 108
    sweep = obstruction_sweep(DioParams(a=-25, b=144, d1=7, d2=2), 200)
    assert sweep.smallest_modulus == (
        192, 12, None, None, 12, None, None, 12, 192, None, 12, None
    )
    assert sweep.certificates[8].tuples_checked == 16 * 192 * 192


def test_sweep_runtime_cap_at_720():
    params = validate_dio_params(13, 3, 2)
    start = time.perf_counter()
    sweep = obstruction_sweep(params, 720)
    elapsed = time.perf_counter() - start
    assert sweep.smallest_modulus == tuple(None if r in (5, 9) else 12 for r in range(12))
    assert elapsed < 1.0, f"sweep to 720 took {elapsed:.2f} s"
