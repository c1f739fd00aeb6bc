import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selli_cert.arith import (
    factorize,
    is_prime,
    prime_array,
    primes_upto,
)
from selli_cert.errors import BudgetExceededError, ParameterError


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0)
    assert not is_prime(1)


def test_is_prime_carmichael():
    # Fermat pseudoprimes to many bases; Miller-Rabin must still reject them
    for n in (561, 1105, 1729, 2465, 41041):
        assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert is_prime(1000000007)
    assert not is_prime(2**31 - 2)


def test_is_prime_refuses_beyond_proven_range():
    with pytest.raises(ParameterError):
        is_prime(3317044064679887385961981 + 2)


def test_is_prime_negative():
    with pytest.raises(ParameterError):
        is_prime(-7)


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1} via Euler's criterion.  The
    library has no use for it; the tests below pin it as a reference."""
    if p == 2 or not is_prime(p):
        raise ParameterError(f"p = {p} must be an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_legendre_known_values():
    assert legendre_symbol(3, 11) == 1
    assert legendre_symbol(3, 5) == -1
    assert legendre_symbol(3, 13) == 1
    assert legendre_symbol(0, 7) == 0
    assert legendre_symbol(14, 7) == 0


def test_legendre_squares_are_residues():
    for p in (5, 7, 11, 13, 17):
        for a in range(1, p):
            assert legendre_symbol(a * a, p) == 1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        legendre_symbol(3, 2)
    with pytest.raises(ParameterError):
        legendre_symbol(3, 15)


@given(
    st.sampled_from([3, 5, 7, 11, 13, 101]),
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
def test_legendre_multiplicative(p, a, b):
    assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


def test_factorize_known():
    assert factorize(57600) == {2: 8, 3: 2, 5: 2}
    assert factorize(2869) == {19: 1, 151: 1}
    assert factorize(1) == {}
    assert factorize(-12) == {2: 2, 3: 1}


def test_factorize_reassembles():
    for n in (2, 97, 1024, 3 * 5 * 7 * 11, 2869, 47473504):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n


def test_factorize_zero_rejected():
    with pytest.raises(ParameterError):
        factorize(0)


def test_factorize_budget():
    # product of two primes both above the trial-division budget
    n = 1000003 * 1000033
    with pytest.raises(BudgetExceededError):
        factorize(n, budget=1000)


def test_factorize_large_prime_cofactor_ok():
    # cofactor above budget but provably prime, so no refusal
    assert factorize(2 * 1000000007, budget=1000) == {2: 1, 1000000007: 1}


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]


def test_both_sieve_readers_match_is_prime():
    # primes_upto lists the sieve for small bounds, prime_array hands it to
    # numpy for the QR check; both must list exactly the primes up to n
    primes = [k for k in range(10**5 + 1) if is_prime(k)]
    for n in [*range(-3, 2001), 10**5]:
        expected = primes[: bisect_right(primes, n)]
        assert primes_upto(n) == expected, n
        assert prime_array(n).tolist() == expected, n
    assert prime_array(10**5).dtype == np.int64
