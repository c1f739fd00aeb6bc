import random
import re
import time
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selli_cert import diophantine
from selli_cert.arith import prime_array
from selli_cert.certificates import build_dio_certificate, replication_evidence
from selli_cert.diophantine import (
    DioParams,
    bounded_search,
    eval_lhs,
    obstruction_sweep,
    qr_law_check,
    tuples_checked,
    validate_dio_params,
)
from selli_cert.errors import BudgetExceededError, HypothesisError, ParameterError
from selli_cert.verify import verify_certificate

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


def test_bounded_search_empty_for_all_triples():
    for a, d1, d2 in PARAM_TRIPLES:
        params = validate_dio_params(a, d1, d2)
        assert bounded_search(params, 30) == [], (a, d1, d2)


def _search(a, b, d1, d2, box):
    """bounded_search with an arbitrary b, not necessarily the derived one."""
    return bounded_search(DioParams(a=a, b=b, d1=d1, d2=d2), box)


def _cube_solutions(a, b, d1, d2, box):
    """Every (x, y, z) in the box solving the equation, by visiting the cube."""
    r = range(-box, box + 1)
    return sorted(
        (x, y, z)
        for x in r
        for y in r
        for z in r
        if eval_lhs(a, b, d1, d2, x, y, z) == 0
    )


def test_search_matches_bruteforce_small():
    for a, d1, d2 in PARAM_TRIPLES:
        params = validate_dio_params(a, d1, d2)
        fast = bounded_search(params, 8)
        assert fast == _cube_solutions(params.a, params.b, d1, d2, 8)


def test_search_planted_root_fires():
    # b chosen so (2, 1, 2) solves a x^3 - y^2 - z^2 + xyz - b = 0
    a = 13
    b = a * 8 - 1 - 4 + 4
    found = _search(a, b, 3, 2, 8)
    assert (2, 1, 2) in found


def test_search_solution_set_closed_under_negation():
    # (x, y, z) -> (x, -y, -z) preserves every term
    a, b = 13, 103
    sols = set(_search(a, b, 3, 2, 10))
    assert sols == {(x, -y, -z) for x, y, z in sols}


def test_search_box_validation():
    with pytest.raises(ParameterError):
        bounded_search(validate_dio_params(13, 3, 2), 0)


def _pair_solutions(a, b, d1, d2, box):
    """Every solution in the box, by an exact isqrt test of every (x, y)."""
    sols = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            disc = (x * y) ** 2 + 4 * (a * x**d1 - b) - 4 * y**d2
            if disc < 0 or isqrt(disc) ** 2 != disc:
                continue
            for root in (isqrt(disc), -isqrt(disc)):
                z = (x * y + root) // 2
                if abs(z) <= box:
                    sols.add((x, y, z))
    return sorted(sols)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(-30, 30),
    d1=st.sampled_from([1, 2, 3, 9, 15]),
    d2=st.sampled_from([2, 4, 6, 8, 10, 14]),
    box=st.integers(1, 12),
    free_b=st.integers(-10**6, 10**6),
    planted=st.none() | st.tuples(*[st.integers(-12, 12)] * 3),
)
@example(a=1, d1=3, d2=2, box=5, free_b=0, planted=(1, 2, 5))  # z = box
@example(a=1, d1=3, d2=2, box=5, free_b=0, planted=(1, -2, -5))  # z = -box
@example(a=7, d1=9, d2=4, box=4, free_b=0, planted=(0, 2, 3))  # x = 0
@example(a=-3, d1=15, d2=6, box=6, free_b=0, planted=(1, 0, 4))  # y = 0
@example(a=5, d1=2, d2=14, box=3, free_b=0, planted=(0, 0, 0))  # origin
def test_search_box_matches_cube(a, d1, d2, box, free_b, planted):
    b = free_b if planted is None else eval_lhs(a, 0, d1, d2, *planted)
    found = _search(a, b, d1, d2, box)
    assert found == _cube_solutions(a, b, d1, d2, box)
    if planted is not None and max(map(abs, planted)) <= box:
        assert planted in found


@pytest.mark.parametrize("block_pairs", [1, 17, 3 * 17])
def test_search_box_small_row_blocks(monkeypatch, block_pairs):
    # box 8 has 17 rows of 17 pairs, sieved 1, 1 or 3 rows at a time; with
    # 3 the last block holds only 2 rows, and the planted root is in its last
    a, d1, d2, box = 13, 3, 2, 8
    b = eval_lhs(a, 0, d1, d2, box, 3, -4)
    expected = _cube_solutions(a, b, d1, d2, box)
    assert (box, 3, -4) in expected
    monkeypatch.setattr(diophantine, "_SEARCH_BLOCK_PAIRS", block_pairs)
    assert _search(a, b, d1, d2, box) == expected


@pytest.mark.parametrize("triple", [(13, 3, 2), (25, 9, 4), (37, 15, 14)])
def test_search_box_300_matches_pair_loop(triple):
    params = validate_dio_params(*triple)
    for b in (params.b, eval_lhs(params.a, 0, params.d1, params.d2, 2, -250, 299)):
        expected = _pair_solutions(params.a, b, params.d1, params.d2, 300)
        assert _search(params.a, b, params.d1, params.d2, 300) == expected
    assert (2, -250, 299) in expected


def test_mod4_tables():
    block, _ = replication_evidence(200)
    assert block["squares_mod4"] == {"attained": [0, 1]}
    assert block["sum_mod4"] == {"attained": [0, 1, 2], "claim_obstructs_3": True, "matches": True}
    # 3 = 0 - 1 mod 4 is attained, so the difference-table claim diverges
    assert block["diff_mod4"] == {
        "attained": [0, 1, 3], "claim_obstructs_3": True, "matches": False
    }


def test_parity_table():
    block, _ = replication_evidence(200)
    assert block["parity"] == {"solutions": [[0, 0]], "claim_only_origin": True, "matches": True}


def test_qr_law_holds():
    assert qr_law_check(10**4)
    with pytest.raises(ParameterError):
        qr_law_check(3)


def test_qr_law_refuses_bounds_past_int64():
    # refused before the sieve allocates anything: the Euler ladder's values
    # reach 3p^2, which passes 2^63 from p = 1753413057 on, and the sieve's
    # memory cap lies far below it
    for bound in (1_753_413_057, 3_037_000_500, diophantine._QR_SIEVE_BOUND + 1):
        with pytest.raises(BudgetExceededError):
            qr_law_check(bound)


def test_qr_sieve_runs_once_per_bound_per_process(monkeypatch):
    diophantine._qr_law_holds.cache_clear()
    ladders = []
    euler_ladder = diophantine._euler_ladder

    def counted(p):
        ladders.append(len(p))
        return euler_ladder(p)

    monkeypatch.setattr(diophantine, "_euler_ladder", counted)
    for a, d1, d2 in ((13, 3, 2), (25, 3, 4)):
        cert = build_dio_certificate(
            validate_dio_params(a, d1, d2), box=5, modulus_bound=48, qr_bound=10**4
        )
        assert cert.replication["qr_law"]["holds"] is True
        assert verify_certificate(cert.to_dict()) == []
    assert len(ladders) == 1


def test_qr_refusals_are_never_kept(monkeypatch):
    diophantine._qr_law_holds.cache_clear()
    sieved = []
    monkeypatch.setattr(diophantine, "prime_array", lambda n: sieved.append(n))
    for _ in range(3):
        with pytest.raises(ParameterError):
            qr_law_check(3)
        with pytest.raises(BudgetExceededError):
            qr_law_check(diophantine._QR_SIEVE_BOUND + 1)
    assert sieved == []
    assert diophantine._qr_law_holds.cache_info().currsize == 0


def test_qr_and_plan_caches_hold_at_most_their_maxsize():
    for cached, call, bounds in (
        (diophantine._qr_law_holds, qr_law_check, range(5, 45)),
        (diophantine._plan, diophantine.sweep_plan, range(0, 1200, 12)),
    ):
        cached.cache_clear()
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None
        for bound in bounds:
            call(bound)
            assert cached.cache_info().currsize <= maxsize
        assert cached.cache_info().currsize == maxsize


def test_euler_ladder_matches_pow_for_every_prime_to_1e5():
    p = prime_array(10**5)
    ladder = diophantine._euler_ladder(p).tolist()
    assert ladder == [pow(3, (q - 1) // 2, q) for q in p.tolist()]


def _table_solvable_flags(a, b, d1, d2, q):
    """For each x in Z/q: does some (y, z) in (Z/q)^2 solve the congruence?

    The table oracle for `diophantine._has_witness`: one q x q grid over
    (x, y) of D = (xy)^2 + 4(a*x^d1 - y^d2 - b) mod 4q, read through the
    square table mod 4q (the proof that this decides the congruence is in
    `_has_witness`).  All int64 values stay below 5q^2.
    """
    xs = np.arange(q, dtype=np.int64)
    y_pow = np.array([pow(y, d2, q) for y in range(q)], dtype=np.int64)
    x_rhs = np.array([(a * pow(x, d1, q) - b) % q for x in range(q)], dtype=np.int64)
    disc = xs[:, None] * xs % q  # s = x*y, rows x, columns y
    disc *= disc
    c = x_rhs[:, None] - y_pow
    c %= q
    c *= 4
    disc += c
    disc %= 4 * q
    return diophantine._square_table(4 * q)[disc].any(axis=1).tolist()


def test_residue_obstruction_mod4():
    # x = 0 mod 2 certifies at modulus 4; x = 1 mod 4 does not
    for a, d1, d2 in PARAM_TRIPLES:
        params = validate_dio_params(a, d1, d2)
        flags = _table_solvable_flags(params.a, params.b, d1, d2, 4)
        assert not flags[0] and not flags[2]
        assert flags[1]


def test_residue_obstruction_mod12_known_class():
    # at modulus 12 the only solvable x are 5 and 9; the class 5 mod 12
    # therefore does not certify
    sweep = obstruction_sweep(validate_dio_params(13, 3, 2), 12)
    assert sweep.smallest_modulus[5] is None
    assert sweep.smallest_modulus[4] == 12


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
            count = tuples_checked(sweep.smallest_modulus[r])
            assert count == (None if r in (5, 9) else 12 * 12)


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


# Powers of 2 are where reading the discriminant mod 4q, not mod q, matters.
prime_powers = pytest.mark.parametrize(
    "q", [2, 4, 8, 16, 32, 64, 128, 256, 3, 9, 27, 81, 243, 5, 25, 125, 7, 49, 11, 121, 13, 169]
)
abds = pytest.mark.parametrize("abd", [(13, 101, 3, 2), (-8, -72, 6, 4), (35, -125, 7, 2)])


@prime_powers
@abds
def test_solvable_flags_prime_powers_match_cube(q, abd):
    flags = _table_solvable_flags(*abd, q)
    assert {x for x, ok in enumerate(flags) if ok} == _cube_solvable_x(*abd, q)


@prime_powers
@abds
def test_witness_rows_prime_powers_match_cube(q, abd):
    is_square = diophantine._square_table(4 * q).tolist()
    params = DioParams(*abd)
    rows = {x for x in range(q) if diophantine._has_witness(params, q, x, is_square)}
    assert rows == _cube_solvable_x(*abd, q)


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-40, 40),
    b=st.integers(-300, 300),
    d1=st.integers(1, 8),
    d2=st.integers(1, 8),
    bound=st.integers(0, 120),
)
@example(a=13, b=101, d1=3, d2=2, bound=5)  # bound < 12
@example(a=35, b=-125, d1=7, d2=2, bound=50)  # minimal modulus 24
@example(a=-8, b=-72, d1=6, d2=4, bound=120)  # minimal moduli 48, 108
def test_obstruction_engine_matches_cube_oracle(a, b, d1, d2, bound):
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
    for r, M in enumerate(expected):
        assert tuples_checked(M) == (None if M is None else (M // 12) * M * M)


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-40, 40),
    b=st.integers(-300, 300),
    d1=st.integers(1, 8),
    d2=st.integers(1, 8),
    q=st.sampled_from([2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7, 49, 11, 13]),
)
def test_solvable_flags_persist_to_lower_powers(a, b, d1, d2, q):
    # the sweep closes a class at the first power of p that empties it,
    # because a solution mod p^(e+1) reduces to one mod p^e
    p = min(f for f in range(2, q + 1) if q % f == 0)
    below = _table_solvable_flags(a, b, d1, d2, q)
    above = _table_solvable_flags(a, b, d1, d2, p * q)
    assert all(below[x % q] for x, ok in enumerate(above) if ok)


def test_sweep_plan_lists_each_prime_power_once():
    # lcm(12, q) is 3q for powers of 2, 4q for powers of 3 and 12q otherwise
    plan = diophantine.sweep_plan(360)
    assert plan == sorted(plan)
    assert sorted(q for _, q in plan) == [
        3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 32, 64, 81
    ]
    assert all(modulus == 12 * q // gcd(12, q) <= 360 for modulus, q in plan)
    assert sum(q * q for _, q in plan) == 15845
    assert diophantine.sweep_plan(11) == []


def test_sweep_plan_returns_a_fresh_list_and_refuses_every_time():
    diophantine._plan.cache_clear()
    plan = diophantine.sweep_plan(360)
    expected = list(plan)
    plan.append((12, 1))
    plan[0] = (0, 0)
    assert diophantine.sweep_plan(360) == expected
    assert diophantine.sweep_plan(360) is not diophantine.sweep_plan(360)
    for _ in range(3):
        with pytest.raises(BudgetExceededError, match="obstruction sweep"):
            diophantine.sweep_plan(11_724)
    assert diophantine._plan.cache_info().currsize == 1


def test_sweep_builds_each_square_table_once():
    diophantine._square_bytes.cache_clear()
    plan = diophantine.sweep_plan(720)
    # classes 5 and 9 of both members stay open, so each reads every q
    for params in (validate_dio_params(13, 3, 2), validate_dio_params(13, 3, 10)):
        sweep = obstruction_sweep(params, 720)
        assert sweep.smallest_modulus == tuple(None if r in (5, 9) else 12 for r in range(12))
    info = diophantine._square_bytes.cache_info()
    assert (info.misses, info.hits) == (len(plan), len(plan))


def test_square_tables_are_read_only():
    table = diophantine._square_table(64)
    with pytest.raises(ValueError):
        table[0] = False
    assert table.tolist() == [r in {x * x % 64 for x in range(64)} for r in range(64)]
    assert isinstance(diophantine._square_bytes(64), bytes)


def test_square_table_cache_stays_within_its_stated_bytes():
    # the plan at 11,723 holds every q an admitted plan can read
    diophantine._square_bytes.cache_clear()
    bounded_search(validate_dio_params(13, 3, 10), 3)
    for bound in (360, 1200, 11_723):
        obstruction_sweep(validate_dio_params(13, 3, 10), bound)
    keys = {64, *diophantine._SIEVE_MODULI} | {4 * q for _, q in diophantine.sweep_plan(11_723)}
    assert diophantine._square_bytes.cache_info().currsize == len(keys)
    held = sum(len(diophantine._square_bytes(m)) for m in keys)
    assert diophantine._square_bytes.cache_info().currsize == len(keys)  # every key was held
    [stated] = re.findall(r"never holds more than ([\d,]+) bytes", diophantine._square_bytes.__doc__)
    assert held <= int(stated.replace(",", ""))


def test_sweep_refuses_past_its_budget_before_any_table(monkeypatch):
    # every q the sweep reads starts with its square table, then reads rows
    # with `_has_witness`; neither may run
    tables = []
    for name in ("_square_table", "_square_bytes", "_has_witness"):
        monkeypatch.setattr(diophantine, name, lambda *args, name=name: tables.append(name))
    params = validate_dio_params(13, 3, 10)
    for bound in (1_200_000, 10**30):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="obstruction sweep"):
            obstruction_sweep(params, bound)
        assert time.perf_counter() - start < 1
    assert tables == []


def _table_sweep(params, bound):
    """The sweep with every q's full table, no witness rows: the oracle."""
    best = [None] * 12
    for modulus, q in diophantine.sweep_plan(bound):
        flags = _table_solvable_flags(params.a, params.b, params.d1, params.d2, q)
        step = gcd(12, q)
        for r in range(12):
            if best[r] is None and not any(flags[r % step :: step]):
                best[r] = modulus
    return tuple(best)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(-10**6, 10**6),
    b=st.integers(-10**6, 10**6),
    d1=st.integers(1, 16),
    d2=st.integers(1, 16),
    bound=st.integers(0, 400),
)
@example(a=-8, b=-72, d1=6, d2=4, bound=120)  # classes close at 48 and 108
@example(a=-25, b=144, d1=7, d2=2, bound=200)  # classes close at 12 and 192
def test_witness_sweep_matches_table_sweep(a, b, d1, d2, bound):
    params = DioParams(a=a, b=b, d1=d1, d2=d2)
    assert obstruction_sweep(params, bound).smallest_modulus == _table_sweep(params, bound)


def test_witness_sweep_matches_table_sweep_on_a_fixed_batch():
    rng = random.Random(7)
    closed = set()
    for _ in range(1500):
        a, b = rng.randint(-40, 40), rng.randint(-300, 300)
        params = DioParams(a=a, b=b, d1=rng.randint(1, 8), d2=rng.randint(1, 8))
        expected = _table_sweep(params, 400)
        assert obstruction_sweep(params, 400).smallest_modulus == expected, params
        closed.update(expected)
    # the batch closes classes at 8, 16, 32, 64 and at 9, 27, 81 too, where a
    # class has more than one row
    assert {24, 36, 48, 96, 108, 192, 324} <= closed


def test_witness_rows_build_a_tenth_of_the_tables(monkeypatch):
    # classes 5 and 9 of (13, 3, 10) stay open through bound 1200, so the
    # table sweep built every q's q x q table; witness rows settle them.
    # Each row read is counted at its full q cells.
    cells = []
    has_witness = diophantine._has_witness

    def counted(params, q, x, is_square):
        cells.append(q)
        return has_witness(params, q, x, is_square)

    monkeypatch.setattr(diophantine, "_has_witness", counted)
    sweep = obstruction_sweep(validate_dio_params(13, 3, 10), 1200)
    assert sweep.smallest_modulus == tuple(None if r in (5, 9) else 12 for r in range(12))
    assert sum(cells) < sum(q * q for _, q in diophantine.sweep_plan(1200)) / 10


def test_sweep_pinned_large_minimal_moduli():
    # 108 = lcm(12, 27) and 192 = lcm(12, 64): classes closed by a single
    # higher prime power; the moduli were confirmed by full (Z/M)^3 sweeps
    sweep = obstruction_sweep(DioParams(a=-8, b=-72, d1=6, d2=4), 120)
    assert sweep.smallest_modulus == (
        48, None, None, 108, 48, None, 108, None, 48, 108, None, None
    )
    assert tuples_checked(sweep.smallest_modulus[3]) == 9 * 108 * 108
    sweep = obstruction_sweep(DioParams(a=-25, b=144, d1=7, d2=2), 200)
    assert sweep.smallest_modulus == (
        192, 12, None, None, 12, None, None, 12, 192, None, 12, None
    )
    assert tuples_checked(sweep.smallest_modulus[8]) == 16 * 192 * 192


def test_sweep_runtime_cap_at_720():
    params = validate_dio_params(13, 3, 2)
    start = time.perf_counter()
    sweep = obstruction_sweep(params, 720)
    elapsed = time.perf_counter() - start
    assert sweep.smallest_modulus == tuple(None if r in (5, 9) else 12 for r in range(12))
    assert elapsed < 1.0, f"sweep to 720 took {elapsed:.2f} s"
