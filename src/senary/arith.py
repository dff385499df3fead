"""Exact integer and rational arithmetic shared by all modules.

Python integers are arbitrary precision, so products of four box-bounded
factors never wrap around; the numpy-accelerated counting loops in
:mod:`senary.cubic` guard their int64 ranges explicitly instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Exact rational scalar.  fractions.Fraction already enforces the invariants
# we need: positive denominator and eager gcd-normalization on every operation.
Rational = Fraction


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, strictly ascending."""

    limit: int
    primes: tuple[int, ...]

    def __post_init__(self):
        if self.limit < 2:
            raise ValueError("limit must be >= 2")
        if any(a >= b for a, b in zip(self.primes, self.primes[1:])):
            raise ValueError("prime list must be strictly ascending")


def primes_up_to(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes; exact."""
    if limit < 2:
        raise ValueError(f"prime limit must be >= 2, got {limit}")
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return PrimeTable(limit, tuple(i for i, f in enumerate(sieve) if f))


def gcd_many(values) -> int:
    """gcd of the absolute values; gcd of an all-zero list is 0."""
    values = list(values)
    if not values:
        raise ValueError("gcd of empty list")
    return math.gcd(*values)


def is_prime(n: int) -> bool:
    """Trial division; exact."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


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
    """Largest r >= 0 with r**3 <= n, exact (no floating point in the result)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    r = round(n ** (1.0 / 3.0))
    while r > 0 and r * r * r > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r
