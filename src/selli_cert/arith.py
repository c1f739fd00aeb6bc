"""Exact elementary number theory: primality, budgeted integer
factorization and a prime sieve.

Everything here is deterministic.  The primality test is the fixed-base
Miller-Rabin battery that is *proved* correct below 3.3e24; inputs beyond
that range are refused rather than answered probabilistically.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt

import numpy as np

from .errors import BudgetExceededError, ParameterError

__all__ = [
    "is_prime",
    "factorize",
    "prime_array",
    "primes_upto",
]

# Fixed Miller-Rabin bases (first twelve primes).  Deterministic for all
# n < 3,317,044,064,679,887,385,961,981 (Sorenson-Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 3.3e24; ParameterError beyond."""
    if n < 0:
        raise ParameterError(f"primality is defined here for n >= 0, got {n}")
    if n >= _MR_LIMIT:
        raise ParameterError(
            f"n = {n} exceeds the proven deterministic Miller-Rabin range"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, *, budget: int = 10**6) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, n != 0.

    Trial division runs up to min(sqrt, budget); a surviving cofactor is
    accepted only if the deterministic primality test certifies it prime,
    otherwise the call refuses with a budget error rather than guessing.
    """
    if n == 0:
        raise ParameterError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    limit = min(isqrt(n), budget)
    while f <= limit and n > 1:
        for q in (f, f + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        f += 6
        limit = min(isqrt(n), budget)
    if n > 1:
        if n <= budget * budget or is_prime(n):
            # no factor <= budget was found, so any cofactor below budget^2
            # is necessarily prime; larger ones must pass the test
            out[n] = out.get(n, 0) + 1
        else:
            raise BudgetExceededError(
                f"composite cofactor {n} resists trial division up to {budget}"
            )
    return out


def _sieve(n: int) -> bytearray:
    """sieve[k] is 1 iff k is prime, for 0 <= k <= n: the sieve of
    Eratosthenes in n + 1 bytes."""
    if n < 2:
        return bytearray(max(n + 1, 0))
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((n - i * i) // i + 1)
    return sieve


def prime_array(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array read off `_sieve`
    without a Python int per prime."""
    return np.frombuffer(_sieve(n), dtype=bool).nonzero()[0]


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending, as a list."""
    return list(compress(range(n + 1), _sieve(n)))
