"""Regenerate ``expected.json``, the pinned outputs the benchmark checks.

Usage: ``python3 bench/pins.py [--threads N]`` from the repository root.
Takes about ten minutes on two cores, because V(P) comes from the naive box
enumeration.  Every pin comes from a computation independent of the code path
the benchmark times:

* V(P) from ``cubic.naive_count_V`` (the oracle), not from the timed
  ``torsor_count_V``;
* N(B) from ``cubic.count_N``, not from the timed ``torsor_count_N``;
* the truncated Euler products behind ``theta`` and ``leading_V`` from an
  mpmath product over a sieve written here, with the local factors taken
  from the paper's closed forms, not from ``senary.graphs`` or ``senary.peyre``;
* their limits from the same product over primes up to ``LIMIT_PRIMES``, with
  the omitted tail bounded by sum_{p > M} 2 c / p^2 <= 2 c / M, where
  |factor - 1| <= c / p^2.

mu_infinity needs no pin: it is checked against its closed form in
``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402

LIMIT_PRIMES = 10**7


def _primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if flags[i]]


def _theta_factor(q):
    # local density factor (1-1/p)^5 (1 + 5/p + 6/p^2 + 5/p^3 + 1/p^4); |f - 1| <= 21/p^2
    return (1 - q) ** 5 * (1 + 5 * q + 6 * q**2 + 5 * q**3 + q**4)


def _graph_factor(q):
    # senary-graph Euler factor at s = 1, b-vector (1, 0, -9, 16, -9, 0, 1); |f - 1| <= 35/p^2
    return 1 - 9 * q**2 + 16 * q**3 - 9 * q**4 + q**6


def _products(factor, primes, cuts):
    """Products over p <= each cut, as floats."""
    out, acc, cuts = {}, mpmath.mpf(1), sorted(cuts)
    i = 0
    for p in primes:
        while i < len(cuts) and p > cuts[i]:
            out[cuts[i]] = acc
            i += 1
        acc *= factor(mpmath.mpf(1) / p)
    for cut in cuts[i:]:
        out[cut] = acc
    return out


def euler_pins(limits) -> dict:
    mpmath.mp.dps = 30
    scalar = mpmath.pi**2 + 24 * mpmath.log(2) - 3
    primes = _primes(LIMIT_PRIMES)
    pins = {}
    for name, factor, scale, c in (
        ("theta", _theta_factor, scalar / 324, 21),
        ("leading_V", _graph_factor, scalar / 2, 35),
    ):
        prods = _products(factor, primes, [*limits, LIMIT_PRIMES])
        limit = scale * prods[LIMIT_PRIMES]
        pins[name] = {
            "truncated": {str(L): float(scale * prods[L]) for L in limits},
            "limit": float(limit),
            "limit_uncertainty": float(limit * mpmath.expm1(mpmath.mpf(2 * c) / LIMIT_PRIMES)),
            "source": f"mpmath product of the closed-form local factors over a sieve; limit "
            f"over p <= {LIMIT_PRIMES} with the tail bounded by 2*{c}/{LIMIT_PRIMES}",
        }
    return pins


def main() -> int:
    from senary.cubic import count_N, naive_count_V

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    boxes = WORKLOADS["box-torsor"].choices["box"]
    heights = WORKLOADS["height-primitive"].choices["height"]
    limits = WORKLOADS["leading-constant"].choices["prime_limit"]
    expected = {
        "V": {
            str(P): {"value": naive_count_V(P, threads=args.threads).count,
                     "source": f"cubic.naive_count_V({P}), the naive box oracle"}
            for P in boxes
        },
        "N": {
            str(B): {"value": count_N(B, threads=args.threads).count,
                     "source": f"cubic.count_N({B}), the naive primitive oracle"}
            for B in heights
        },
        **euler_pins(limits),
    }
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
