"""Ground-truth enumeration of integer points on the senary cubic.

One kernel, ``_octant_solutions``, takes one (y1, y2) plane of the positive
octant at a time (sign symmetry gives a factor 8), with x1 and x2 free over
the box as numpy arrays.  For each (x1, x2) the cubic is linear in (y3, x3),
and its solutions are one arithmetic progression in y3 with step
y1*y2 / gcd(x1*y2 + x2*y1, y1*y2); the kernel lays out only the terms inside
the box.  The box and primitive counters, the Moebius ladder of
``mobius_check`` and ``iter_box_solutions`` all consume it.  It is
deliberately plain box arithmetic, sharing no descent coordinates, coprimality
tables or lattice counts with :mod:`senary.torsor`, and serves as the oracle
that the descent-based counter must reproduce exactly.  Every counter skips
the degenerate locus y1*y2*y3 = 0: its points of height at most B number on
the order of B^(4/3) and would swamp the B * Q(log B) the paper proves for
the open set.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from senary.arith import integer_cube_root, moebius

COUNT_METHODS = (
    "naive",
    "torsor",
    "naive-primitive",
    "torsor-primitive",
)

# Memory, not int64, bounds the naive kernel: its largest intermediate is
# base = x1*y2 + x2*y1, at most 2*P^2 (y3 = t*step and |x3| = t*|base/g| are
# at most P).  One (y1, y2) plane of ``_octant_solutions`` holds seven int64
# arrays over the (2P+1)^2 grid (X1, X2, base, g, step, b, n) and six over the
# plane's solutions (i, t and the four it yields).  The plane y1 = y2 = 1 has
# the most solutions, 4.9, 5.6 and 6.3 per grid cell at P = 100, 200 and 400,
# and by tracemalloc it peaks at 41, 46 and 51 int64 per grid cell there,
# about 5 more per doubling of P.  At P = 1000 that is about 57 * 8 * 2001^2
# bytes, 1.7 GiB; twice the bound would take about 7.4 GiB.
_MAX_NAIVE_BOUND = 1000

# The cost rule of ``_run_partitioned``: a count opens a pool of T workers
# only when its estimated serial time exceeds T * _WORKER_START_S.  The
# estimate is a cell count times its kernel's seconds per cell: the naive
# kernel's R^2 (2R+1)^2 cells below, the descent's sum of m^3 in
# senary.torsor.  Calibrated on a 2-core Xeon VM, best of three runs in one
# process: two workers first beat one at about 50 ms of serial work (V(150),
# N(150^3), mobius_check(15^3)), so a worker costs 25 ms, which covers its
# fork, pickling and join and the speed-up that falls short of T-fold.  The
# naive kernel takes 94-121 ns per cell at R = 20 (mobius_check 117 ns).
_WORKER_START_S = 0.025
_NAIVE_CELL_S = 1.2e-7


def cubic_form(x1: int, x2: int, x3: int, y1: int, y2: int, y3: int) -> int:
    return x1 * y2 * y3 + x2 * y1 * y3 + x3 * y1 * y2


@dataclass(frozen=True)
class SolutionSextuple:
    """An integer point on the cubic; validated on construction."""

    x1: int
    x2: int
    x3: int
    y1: int
    y2: int
    y3: int

    def __post_init__(self):
        if cubic_form(*self.coords) != 0:
            raise ValueError(f"not a solution: {self.coords}")
        if all(c == 0 for c in self.coords):
            raise ValueError("the zero sextuple is excluded")

    @property
    def coords(self) -> tuple[int, ...]:
        return (self.x1, self.x2, self.x3, self.y1, self.y2, self.y3)

    @property
    def is_degenerate(self) -> bool:
        return self.y1 * self.y2 * self.y3 == 0


@dataclass
class CountReport:
    bound: int
    method: str
    count: int
    elapsed: float

    def __post_init__(self):
        if self.method not in COUNT_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.count < 0:
            raise ValueError("count must be >= 0")


def _check_box_bound(P: int):
    if P < 1:
        raise ValueError("box bound must be >= 1")
    if P > _MAX_NAIVE_BOUND:
        raise OverflowError(
            f"box bound {P} exceeds {_MAX_NAIVE_BOUND}, the largest box the naive kernel holds in memory"
        )


def _octant_solutions(P: int, y1s):
    """The naive kernel: for each (y1, y2) in the positive quadrant with y1
    in ``y1s``, yield y1, y2 and the int64 arrays (y3, x1, x2, x3) of every
    box solution with y3 >= 1.  With base = x1*y2 + x2*y1 the cubic reads
    y3*base + x3*y1*y2 = 0; for g = gcd(base, y1*y2) it holds exactly when
    y3 = t * (y1*y2 // g) and x3 = -t * (base // g), so each (x1, x2) of the
    box owns the t in 1..n that keep y3 and |x3| <= P, laid out directly."""
    xs = np.arange(-P, P + 1, dtype=np.int64)
    X1, X2 = (X.ravel() for X in np.meshgrid(xs, xs, indexing="ij"))
    for y1 in y1s:
        for y2 in range(1, P + 1):
            base = X1 * y2 + X2 * y1
            g = np.gcd(base, y1 * y2)
            step, b = y1 * y2 // g, base // g
            n = np.minimum(P // step, P // np.maximum(np.abs(b), 1))
            # n[i] copies of each index i, numbered t = 1..n[i] (torsor._ranges)
            i = np.repeat(np.arange(len(n)), n)
            t = np.arange(1, len(i) + 1) - (np.cumsum(n) - n)[i]
            yield y1, y2, t * step[i], X1[i], X2[i], -t * b[i]


def _count_chunk(P: int, count, k: int, T: int):
    """Sum of count(y1, y2, y3, x1, x2, x3) over the octant solutions of
    share k of T, the y1 with y1 - 1 = k or 2T - 1 - k (mod 2T), an int or
    an array summed elementwise; count is module-level so the pool can
    pickle it."""
    y1s = sorted(itertools.chain(range(1 + k, P + 1, 2 * T), range(2 * T - k, P + 1, 2 * T)))
    return sum(count(*sol) for sol in _octant_solutions(P, y1s))


def _count_all(y1, y2, y3, x1, x2, x3) -> int:
    return len(x3)


def _is_primitive(y1, y2, y3, x1, x2, x3) -> np.ndarray:
    """Mask of the solutions whose six coordinates have gcd 1 (np.gcd ignores
    signs): all of the plane when gcd(y1, y2) = 1, and otherwise that gcd
    folded into x1 first, so that the array gcds start small."""
    g = math.gcd(y1, y2)
    if g == 1:
        return np.ones(len(x1), dtype=bool)
    return np.gcd(np.gcd(np.gcd(np.gcd(x1, g), x2), x3), y3) == 1


def _count_primitive(*sol) -> int:
    return int(_is_primitive(*sol).sum())


def _count_by_height(R: int, y1, y2, y3, x1, x2, x3) -> np.ndarray:
    """Solutions binned by height h = max(y1, y2, y3, |x1|, |x2|, |x3|) in
    0..R: row 0 counts all of them, row 1 the primitive ones."""
    h = np.maximum(np.maximum(np.abs(x1), np.abs(x2)), np.maximum(np.abs(x3), y3))
    h = np.maximum(h, max(y1, y2))
    primitive = _is_primitive(y1, y2, y3, x1, x2, x3)
    return np.stack([np.bincount(h, minlength=R + 1), np.bincount(h[primitive], minlength=R + 1)])


def iter_box_solutions(P: int):
    """Every integer sextuple in [-P, P]^6 on the cubic with y1*y2*y3 != 0,
    once each: the sign orbits (s1 x1, s2 x2, s3 x3, s1 y1, s2 y2, s3 y3) of
    the positive-octant solutions."""
    _check_box_bound(P)
    signs = list(itertools.product((1, -1), repeat=3))
    for y1, y2, y3s, x1s, x2s, x3s in _octant_solutions(P, range(1, P + 1)):
        for y3, x1, x2, x3 in zip(y3s.tolist(), x1s.tolist(), x2s.tolist(), x3s.tolist()):
            for s1, s2, s3 in signs:
                yield (s1 * x1, s2 * x2, s3 * x3, s1 * y1, s2 * y2, s3 * y3)


def _run_partitioned(deal, threads: int, serial_s: float):
    """Sum of fn(*args) over the jobs deal(T), a list of (fn, args) pairs
    that split one count into T shares, fn module-level so the pool can
    pickle it.  A count whose estimated serial time ``serial_s`` does not
    exceed the cost of starting ``threads`` workers runs in this process as
    deal(1); otherwise one pool of ``threads`` workers takes every job of
    deal(threads), and the results are summed in submission order, so the
    sum does not depend on which worker ran what."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if serial_s <= threads * _WORKER_START_S:
        threads = 1
    jobs = deal(threads)
    if threads == 1:
        return sum(fn(*args) for fn, args in jobs)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, *args) for fn, args in jobs]
        return sum(f.result() for f in futures)


def _y1_jobs(P: int, count, T: int) -> list:
    """The naive kernel's jobs: y1 in 1..P dealt to T shares in snake order,
    worker k taking y1 - 1 = k or 2T - 1 - k (mod 2T).  Small y1 own the
    most solutions (their y3 step y1*y2 // g is small), so a plain stride
    would hand worker 0 the heavier y1 of every round (and split by parity
    at T = 2, where even y1 own 62% of the solutions at R = 40); the snake
    gives each worker one light and one heavy y1 per two rounds."""
    return [(_count_chunk, (P, count, k, T)) for k in range(T)]


def _naive_serial_s(P: int) -> float:
    """The naive kernel's estimated serial time on the box of radius P: its
    P^2 (y1, y2) planes of (2P+1)^2 grid cells each."""
    return P * P * (2 * P + 1) ** 2 * _NAIVE_CELL_S


def naive_count_V(P: int, threads: int = 1) -> CountReport:
    """Exact count of integer sextuples in the box [-P, P]^6 on the cubic
    with y1*y2*y3 != 0 (no coprimality, both signs)."""
    _check_box_bound(P)
    t0 = time.perf_counter()
    total = 8 * _run_partitioned(partial(_y1_jobs, P, _count_all), threads, _naive_serial_s(P))
    return CountReport(P, "naive", total, time.perf_counter() - t0)


def count_N(B: int, threads: int = 1) -> CountReport:
    """Number of rational points of height at most B away from the degenerate
    locus: unordered +/- pairs of primitive sextuples with y1*y2*y3 != 0 and
    max|coordinate| <= floor(B^(1/3))."""
    if B < 1:
        raise ValueError("height bound must be >= 1")
    R = integer_cube_root(B)
    _check_box_bound(R)
    t0 = time.perf_counter()
    deal = partial(_y1_jobs, R, _count_primitive)
    total = 4 * _run_partitioned(deal, threads, _naive_serial_s(R))
    return CountReport(B, "naive-primitive", total, time.perf_counter() - t0)


def mobius_check(B: int, threads: int = 1) -> list[tuple[int, bool, int]]:
    """Check 2*N(r^3) = sum_{d <= r} mu(d) * V(floor(r/d)) for every cube
    r^3 <= B, the Moebius inversion from box counts to primitive points.

    One naive pass over the box of radius R = floor(B^(1/3)) bins every
    solution by its height max|coordinate|, all and primitive ones apart; the
    cumulative bins up to r give V(r) and 2*N(r^3) for every r <= R at once.
    Returns one (r^3, equal, 2*N - sum) per r = 1..R, in exact integers.
    """
    if B < 1:
        raise ValueError("height bound must be >= 1")
    R = integer_cube_root(B)
    _check_box_bound(R)
    deal = partial(_y1_jobs, R, partial(_count_by_height, R))
    bins = _run_partitioned(deal, threads, _naive_serial_s(R))
    V, N2 = (8 * np.cumsum(bins, axis=1)).tolist()
    ladder = []
    for r in range(1, R + 1):
        rhs = sum(c * V[m] for m, c in _moebius_weights(r).items())
        ladder.append((r**3, N2[r] == rhs, N2[r] - rhs))
    return ladder


def _moebius_weights(R: int) -> dict[int, int]:
    """m -> c_m, the sum of mu(d) over the d <= R with R // d = m, for the m
    where it is nonzero, so that sum_{d <= R} mu(d) f(R // d) is
    sum_m c_m f(m): R // d takes only about 2 sqrt(R) values."""
    weights: dict[int, int] = {}
    for d in range(1, R + 1):
        mu = moebius(d)
        if mu:
            weights[R // d] = weights.get(R // d, 0) + mu
    return {m: c for m, c in weights.items() if c}
