"""Exact integer and rational arithmetic shared by all modules.

Python integers are arbitrary precision, so products of four box-bounded
factors never wrap around; the numpy-accelerated counting loops in
:mod:`senary.cubic` guard their int64 ranges explicitly instead.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

# Exact rational scalar.  fractions.Fraction already enforces the invariants
# we need: positive denominator and eager gcd-normalization on every operation.
Rational = Fraction

# Memory bounds the sieve: one bool per integer up to the limit, then 8 bytes
# per prime.  At 10^8 (by tracemalloc, numpy 2.4 on x86-64) the sieve peaks at
# 139 MiB in 1.8 s, graphs.xi of the senary graph also at 139 MiB in 3.2 s,
# and peyre's local-density product at 220 MiB in 1.9 s; ten times the limit
# would take ten times that.  10^8 is the largest limit an Euler product here
# is compared at.
_MAX_PRIME_LIMIT = 10**8


def primes_up_to(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes; exact.  The primes come ascending in one
    read-only int64 array, which calls in a row at one limit share."""
    if limit < 2:
        raise ValueError(f"prime limit must be >= 2, got {limit}")
    if limit > _MAX_PRIME_LIMIT:
        raise ValueError(f"prime limit must be <= {_MAX_PRIME_LIMIT}, got {limit}")
    return _sieve(limit)


# One table kept: callers may ask for one limit twice in a row (graphs.xi
# under ``constants theta`` and ``leading-v`` in one process), and a table to
# 10^6 is 78,498 primes that should not outlive the next limit asked for.
@functools.lru_cache(maxsize=1)
def _sieve(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    primes.flags.writeable = False
    return primes


# The first 13 primes; the strong probable-prime test to all of them is exact
# below the smallest strong pseudoprime to every one of them (Sorenson and
# Webster, Math. Comp. 86 (2017)).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases; exact for
    n < 3.3e24, and a ValueError above that rather than an inexact answer."""
    if n < 2:
        return False
    if n >= _MILLER_RABIN_EXACT_BELOW:
        raise ValueError(f"primality test is exact only below {_MILLER_RABIN_EXACT_BELOW}, got {n}")
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
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


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of n >= 1 into (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def moebius(n: int) -> int:
    """Moebius function via trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        result = -result
    return result


def integer_cube_root(n: int) -> int:
    """Largest r >= 0 with r**3 <= n: integer Newton steps from above the
    root, which stay at or above floor(n^(1/3)) and fall while r^3 > n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // 3)
    while (s := (2 * r + n // (r * r)) // 3) < r:
        r = s
    return r
