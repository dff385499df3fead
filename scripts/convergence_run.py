#!/usr/bin/env python3
"""Convergence diagnostics for the numeric constants.

Prints the Euler-product drift across prime limits (with the rigorous tail
bound next to it) and the quadrature refinement ladder for the archimedean
density against the closed-form target, with the seconds each level took.
"""

import argparse
import sys
import time

from senary.graphs import SENARY_GRAPH, xi
from senary.peyre import TWO_PI_LOG_CONSTANT, _outer_level, _QUAD_L


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime-limits", default="1000,10000,100000,1000000")
    parser.add_argument("--levels", default="16,32,64,128")
    args = parser.parse_args(argv)

    print("euler product at s = 1 (graph factor):")
    print("prime_limit,value,tail_bound")
    prev = None
    for L in (int(v) for v in args.prime_limits.split(",")):
        value, tail = xi(SENARY_GRAPH, (1.0,) * 6, L)
        drift = "" if prev is None else f"  drift={value - prev:+.3e}"
        print(f"{L},{value:.12f},{tail:.3e}{drift}")
        prev = value

    target = 12.0 * TWO_PI_LOG_CONSTANT
    print(f"\narchimedean density, target {target:.6f}:")
    print("grid_n,value,rel_error,seconds")
    for n in (int(v) for v in args.levels.split(",")):
        start = time.perf_counter()
        value = _outer_level.__wrapped__(n, _QUAD_L)  # uncached, so timed in full
        seconds = time.perf_counter() - start
        print(f"{n},{value:.6f},{(value - target) / target:+.3e},{seconds:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
