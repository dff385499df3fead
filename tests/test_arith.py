import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from senary.arith import (
    Rational,
    factorize,
    integer_cube_root,
    is_prime,
    moebius,
    primes_up_to,
)


def test_primes_up_to_examples():
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(30).dtype == np.int64


def test_is_prime_agrees_with_the_sieve():
    assert [n for n in range(-3, 200) if is_prime(n)] == primes_up_to(199).tolist()


@pytest.mark.parametrize(
    "n, prime",
    [
        (561, False),  # Carmichael numbers
        (41041, False),
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # strong pseudoprime to bases 2..23
        (10**14 + 31, True),
        (2**61 - 1, True),
        ((2**31 - 1) ** 2, False),  # square of a prime: no small factor
    ],
)
def test_is_prime_on_pseudoprimes_and_large_primes(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_values_beyond_its_exact_range():
    # the smallest strong pseudoprime to all 13 bases 2..41
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)


def test_primes_up_to_rejects_tiny_limit():
    with pytest.raises(ValueError):
        primes_up_to(1)


def test_primes_up_to_shares_the_table_of_the_last_limit():
    table = primes_up_to(1000)
    assert primes_up_to(1000) is table
    assert not table.flags.writeable  # shared, so read-only
    for limit in (1, 0, -5):
        with pytest.raises(ValueError):
            primes_up_to(limit)
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert np.array_equal(primes_up_to(1000), table)


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1
    with pytest.raises(ValueError):
        moebius(0)


@given(st.integers(1, 2000), st.integers(1, 2000))
def test_moebius_multiplicative_on_coprime_arguments(m, n):
    if math.gcd(m, n) == 1:
        assert moebius(m * n) == moebius(m) * moebius(n)


def test_moebius_divisor_sums_vanish():
    # sum_{d | n} mu(d) == [n == 1] for all n <= 10^4, accumulated by sieving
    N = 10_000
    acc = [0] * (N + 1)
    for d in range(1, N + 1):
        mu = moebius(d)
        if mu:
            for n in range(d, N + 1, d):
                acc[n] += mu
    assert acc[1] == 1
    assert all(acc[n] == 0 for n in range(2, N + 1))


@given(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    c = a + b
    assert c.denominator > 0
    assert math.gcd(abs(c.numerator), c.denominator) == 1


def test_rational_is_fraction():
    assert Rational is Fraction
    assert Rational(6, -4) == Fraction(-3, 2)
    assert Rational(6, -4).denominator == 2


def test_factorize():
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]


@given(st.integers(0, 10**12))
def test_integer_cube_root_is_exact(n):
    r = integer_cube_root(n)
    assert r**3 <= n < (r + 1) ** 3


def test_integer_cube_root_at_cube_boundaries():
    for m in (1, 2, 3, 10, 99, 1000):
        assert integer_cube_root(m**3 - 1) == m - 1
        assert integer_cube_root(m**3) == m
        assert integer_cube_root(m**3 + 1) == m


def test_integer_cube_root_is_exact_far_past_the_floats():
    # r^3 - 1, r^3 and r^3 + 1 for r up to 10^200, the largest first: far
    # above 2^53 a float start is off by many units, and above 1.8e308 a
    # float does not hold n at all
    roots = {10**k + d for k in range(1, 201) for d in (-1, 0, 1)}
    roots |= {2**k for k in range(1, 665)}
    for r in sorted(roots, reverse=True):
        assert [integer_cube_root(r**3 + d) for d in (-1, 0, 1)] == [r - 1, r, r]
