"""Ground-truth enumeration of integer points on the senary cubic.

One kernel, ``_octant_cells``, takes the positive octant y1, y2, y3 >= 1
(the sign maps (s1 x1, s2 x2, s3 x3, s1 y1, s2 y2, s3 y3) give a factor 8)
as numpy arrays of (x1, x2) cells in (y1, y2) planes.  Two more maps keep
the cubic, the height, primitivity and the box: x -> -x with y fixed, as
the cubic is linear in x, and the swap of the indices 1 and 2.  So the
kernel lays out only their fundamental domain: the planes y2 >= y1 and in
each the cells with x1 >= 0, the column x1 = 0 whole, P(P+1)/2 planes of
(P+1)(2P+1) cells.  A cell stands for (1 + [y1 < y2]) (1 + [x1 > 0]) cells
of the full grid, its weight in every count (``_weights``).  For each cell
the cubic is linear in (y3, x3), with one progression of solutions
t * (y3, x3); the kernel yields each cell with the m that gives its count
P // m and the heights t*m in closed form.  The counters and
``mobius_check`` count cells; only the non-primitive solutions and
``iter_box_solutions`` lay out terms.  It is deliberately plain box
arithmetic, sharing no descent coordinates, coprimality tables or lattice
counts with :mod:`senary.torsor`, and serves as the oracle that the
descent-based counter must reproduce exactly.  Every counter skips the
degenerate locus y1*y2*y3 = 0: its points of height at most B number on the
order of B^(4/3) and would swamp the B * Q(log B) the paper proves for the
open set.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from senary.arith import integer_cube_root, moebius

COUNT_METHODS = (
    "naive",
    "torsor",
    "naive-primitive",
    "torsor-primitive",
)

# Memory, not int64, bounds the naive kernel (its intermediates stay below
# 2*P^4).  A plane is (P+1)(2P+1) cells.  By tracemalloc, a one-plane batch
# peaks at 12-14 int64 per cell for ``naive_count_V`` at P = 100, 200 and
# 400 (y1 = 1, 2, P/2 and P), and for ``mobius_check``'s bins at 25-37 there
# and 58-74 at P = 1000 (planes y1 = y2 from 60 to 840, whose many
# non-primitive terms are laid out), so P = 1000 takes up to
# 74 * 8 * 1001 * 2001 bytes, 1.1 GiB.
_MAX_NAIVE_BOUND = 1000

# Grid cells per numpy pass of ``_octant_cells`` (one plane from P = 64 on):
# a fresh `count --height 27000 --primitive`, `verify mobius --bmax 8000` ran
# 10% faster at 2^16 but peaked at 35.1 MiB of RSS, against 32.6 (20 runs).
_BATCH_CELLS = 1 << 13

# The cost rule of ``_run_partitioned``: a count opens a pool of T workers
# only when its estimated serial time exceeds T * _WORKER_START_S.  The
# estimate is a cell count times its kernel's seconds per cell: the naive
# kernel's R(R+1)/2 (R+1)(2R+1) cells below, the descent's sum of m^3 in
# senary.torsor.  Calibrated on a 2-core Xeon VM in fresh CLI processes (the
# first pool imports the pool module), by the median of the 2-worker over the
# 1-worker time in 6 to 16 alternating pairs: the descent read 0.85 to 1.86 up
# to 300 ms of estimated work and 0.78 to 0.95 above (V(267) to V(300),
# N(252^3) to N(350^3)).  So a worker costs 150 ms: its import, fork,
# pickling and join and the speed-up that falls short of T-fold.  The naive
# kernel takes 22-26 ns per cell for ``naive_count_V`` and 32-54 ns for
# ``count_N`` and ``mobius_check`` at R = 28 to 68.  With the pool forced
# open, the three naive counters read 1.01 to 1.22 at R = 36 (72 ms
# estimated), 0.88 to 0.92 at R = 44 (158 ms) and 0.58 to 0.82 from R = 52
# (307 ms), where they cross the line (8 pairs each).
_WORKER_START_S = 0.15
_NAIVE_CELL_S = 4.0e-8


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


def _bound_name(P: int, B: int | None) -> str:
    """The box radius P as the caller gave it: a box bound, or the radius of
    the height bound B."""
    if B is None:
        return f"box bound {P}"
    return f"radius {P} = floor(B^(1/3)) of height bound B = {B}"


def _check_box_bound(P: int, B: int | None = None):
    if P < 1:
        raise ValueError("box bound must be >= 1")
    if P > _MAX_NAIVE_BOUND:
        raise OverflowError(
            f"{_bound_name(P, B)} exceeds {_MAX_NAIVE_BOUND}, "
            "the largest box the naive kernel holds in memory"
        )


def _height_radius(B: int, check=_check_box_bound) -> int:
    """R = floor(B^(1/3)), the radius of the box of height bound B, passed
    by check(R, B), whose refusal names B."""
    if B < 1:
        raise ValueError("height bound must be >= 1")
    R = integer_cube_root(B)
    check(R, B)
    return R


def _octant_cells(P: int, y1s):
    """The naive kernel: for each y1 in ``y1s``, yield y1 and the int64
    arrays (y2, x1, x2, m) of the cells (x1, x2), x1 >= 0, of its planes
    (y1, y2), y2 >= y1, that own a solution with y3 >= 1.  With
    base = x1*y2 + x2*y1 and g = gcd(base, y1*y2) these are
    y3 = t * (y1*y2 // g), x3 = -t * (base // g) for t in 1..P // m,
    m = max(y1*y2, |base|) // g.  base is y2 * (x1 mod y1) + y1 * (x2 mod y2)
    modulo y1*y2, so a plane reads y1*y2 // g from a table over these
    residue pairs; the planes of a y1 go through numpy together."""
    xs = np.arange(-P, P + 1, dtype=np.int64)
    x1s = xs[P:]
    X1, X2 = (X.ravel() for X in np.meshgrid(x1s, xs, indexing="ij"))
    planes = max(1, _BATCH_CELLS // len(X1))
    for y1 in y1s:
        for lo in range(y1, P + 1, planes):
            y2 = np.arange(lo, min(lo + planes, P + 1))
            q = y1 * y2
            # step[a, o + b] = q // gcd(a*y2 + b*y1, q) for the plane at offset o
            o = np.cumsum(y2) - y2
            Y, b = np.repeat(y2, y2), np.arange(y2.sum()) - np.repeat(o, y2)
            step = y1 * Y // np.gcd(np.arange(y1)[:, None] * Y + b * y1, y1 * Y)
            k = ((x1s % y1) * len(Y))[:, None] + (o[:, None] + xs % y2[:, None])[:, None, :]
            mq = (y2[:, None] * x1s)[:, :, None] + y1 * xs  # base, then m * q in place
            np.maximum(np.abs(mq, out=mq), q[:, None, None], out=mq)
            mq *= step.ravel()[k]
            i = np.flatnonzero(mq <= (P * q)[:, None, None])
            j = i // len(X1)  # np.divmod takes three times as long
            r = i - j * len(X1)
            yield y1, y2[j], X1[r], X2[r], mq.ravel()[i] // q[j]


def _weights(y1: int, y2, x1):
    """The cells of the full grid that each laid-out cell stands for: itself,
    its image (-x1, -x2) when x1 > 0, and the images of both in the plane
    (y2, y1) when y1 < y2."""
    return (1 + (y2 > y1)) * (1 + (x1 > 0))


def _snake(i, k: int, T: int):
    """Whether index i (an int or int array) falls to share k of T in snake
    order, i = k or 2T - 1 - k (mod 2T): each share takes an early and a late
    index per two rounds, so work that falls with the index stays balanced."""
    r = i % (2 * T)
    return (r == k) | (r == 2 * T - 1 - k)


def _count_chunk(count, P: int, k: int, T: int):
    """Sum of count(P, y1, y2, x1, x2, m) over the kernel's cells of share k
    of T, an int or an array summed elementwise; count is module-level so
    the pool can pickle the share ``partial(_count_chunk, count)``.  ``_snake``
    deals y1 - 1, since small y1 own the most solutions."""
    y1s = [y1 for y1 in range(1, P + 1) if _snake(y1 - 1, k, T)]
    return sum(count(P, *cells) for cells in _octant_cells(P, y1s))


def _count_all(P: int, y1, y2, x1, x2, m) -> int:
    return int((P // m * _weights(y1, y2, x1)).sum())


def _terms(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms t = 1..n[i] of each cell i, as arrays (i, t)."""
    i = np.repeat(np.arange(len(n)), n)
    return i, np.arange(1, len(i) + 1) - (np.cumsum(n) - n)[i]


@lru_cache(maxsize=1)
def _gcd_table(P: int) -> np.ndarray:
    """gcd(a, b) at a * (P + 1) + b for a, b in 0..P, read-only."""
    table = np.gcd.outer(np.arange(P + 1), np.arange(P + 1)).ravel()
    table.flags.writeable = False
    return table


def _nonprimitive(P: int, y1, y2, x1, x2, m) -> tuple[np.ndarray, np.ndarray]:
    """The cell indices and t of the solutions whose six coordinates have
    gcd > 1.  (y3, x3) / t is coprime, so that gcd is gcd(t, d) with
    d = gcd(x1, x2, y1, y2), and only cells with d > 1 are laid out; every
    entry is at most P, so the gcds are read from ``_gcd_table``."""
    gcd = _gcd_table(P)
    d = gcd[gcd[np.abs(x1) * (P + 1) + np.abs(x2)] * (P + 1) + gcd[y1 * (P + 1) + y2]]
    j = np.flatnonzero(d > 1)
    i, t = _terms(P // m[j])
    j = j[i]
    keep = np.flatnonzero(gcd[t * (P + 1) + d[j]] > 1)
    return j[keep], t[keep]


def _count_primitive(P: int, y1, y2, x1, x2, m) -> int:
    w = _weights(y1, y2, x1)
    j, _ = _nonprimitive(P, y1, y2, x1, x2, m)
    return int((P // m * w).sum() - w[j].sum())


def _count_by_height(P: int, y1, y2, x1, x2, m) -> np.ndarray:
    """Rows 0..P: the cells by c = max(|x1|, |x2|, y1, y2) and m, solution t
    having height max(c, t*m); row P + 1: the non-primitive ones by height.
    Each counts with its weight.  A float bin sums whole numbers to at most
    the box's P^3 (2P+1)^2 solutions, below 2^53 for P <= 1000, so it is
    exact."""
    c = np.maximum(np.maximum(np.abs(x1), np.abs(x2)), np.maximum(y2, y1))
    w = _weights(y1, y2, x1)
    j, t = _nonprimitive(P, y1, y2, x1, x2, m)
    cells = np.bincount(c * (P + 1) + m, weights=w, minlength=(P + 1) ** 2)
    heights = np.bincount(np.maximum(c[j], t * m[j]), weights=w[j], minlength=P + 1)
    return np.append(cells, heights).reshape(P + 2, P + 1).astype(np.int64)


def iter_box_solutions(P: int):
    """Every integer sextuple in [-P, P]^6 on the cubic with y1*y2*y3 != 0,
    once each: the sign orbits (s1 x1, s2 x2, s3 x3, s1 y1, s2 y2, s3 y3) of
    the positive-octant solutions, which are the kernel's laid-out solutions
    and their images under x -> -x (when x1 > 0) and the 1 <-> 2 swap (when
    y1 < y2)."""
    _check_box_bound(P)
    signs = list(itertools.product((1, -1), repeat=3))
    for y1, y2, x1, x2, m in _octant_cells(P, range(1, P + 1)):
        i, t = _terms(P // m)
        x1, x2, y2 = x1[i], x2[i], y2[i]
        base, q = x1 * y2 + x2 * y1, y1 * y2
        g = np.gcd(base, q)
        x3, y3 = -t * (base // g), t * (q // g)
        for a1, a2, a3, b2, b3 in zip(x1.tolist(), x2.tolist(), x3.tolist(), y2.tolist(), y3.tolist()):
            orbit = [(a1, a2, a3, y1, b2, b3)]
            if a1 > 0:
                orbit.append((-a1, -a2, -a3, y1, b2, b3))
            if y1 < b2:
                orbit += [(c2, c1, c3, d2, d1, d3) for c1, c2, c3, d1, d2, d3 in orbit]
            for c1, c2, c3, d1, d2, d3 in orbit:
                for s1, s2, s3 in signs:
                    yield (s1 * c1, s2 * c2, s3 * c3, s1 * d1, s2 * d2, s3 * d3)


def _run_partitioned(share, terms, threads: int, serial_s: float):
    """The sum of c * share(m, k, T) over the (m, c) in ``terms`` and the
    shares k < T, whose sum over k is share(m, 0, 1) at every T; share is
    module-level, or a partial of one, so the pool can pickle it.  T is 1,
    in this process, at threads = 1 or when the estimated serial time
    ``serial_s`` does not exceed the cost of starting ``threads`` workers;
    otherwise one pool of T = ``threads`` workers runs one job per share of
    every term, summed in submission order, so the sum does not depend on
    which worker ran what.  The pool class is read off this module as the
    pool opens: it is imported only then, or a class bound there is used."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1 or serial_s <= threads * _WORKER_START_S:
        return sum(c * share(m, 0, 1) for m, c in terms)
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=threads) as pool:
        jobs = [(c, pool.submit(share, m, k, threads)) for m, c in terms for k in range(threads)]
        return sum(c * job.result() for c, job in jobs)


def __getattr__(name: str):
    """The process pool, imported on first use (PEP 562)."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _naive_serial_s(P: int) -> float:
    """The naive kernel's estimated serial time on the box of radius P: its
    P(P+1)/2 planes y2 >= y1 of (P+1)(2P+1) cells x1 >= 0 each."""
    return P * (P + 1) // 2 * (P + 1) * (2 * P + 1) * _NAIVE_CELL_S


def naive_count_V(P: int, threads: int = 1) -> CountReport:
    """Exact count of integer sextuples in the box [-P, P]^6 on the cubic
    with y1*y2*y3 != 0 (no coprimality, both signs)."""
    _check_box_bound(P)
    t0 = time.perf_counter()
    total = 8 * _run_partitioned(partial(_count_chunk, _count_all), [(P, 1)], threads, _naive_serial_s(P))
    return CountReport(P, "naive", total, time.perf_counter() - t0)


def count_N(B: int, threads: int = 1) -> CountReport:
    """Number of rational points of height at most B away from the degenerate
    locus: unordered +/- pairs of primitive sextuples with y1*y2*y3 != 0 and
    max|coordinate| <= floor(B^(1/3))."""
    R = _height_radius(B)
    t0 = time.perf_counter()
    share = partial(_count_chunk, _count_primitive)
    total = 4 * _run_partitioned(share, [(R, 1)], threads, _naive_serial_s(R))
    return CountReport(B, "naive-primitive", total, time.perf_counter() - t0)


def mobius_check(B: int, threads: int = 1) -> list[tuple[int, bool, int]]:
    """Check 2*N(r^3) = sum_{d <= r} mu(d) * V(floor(r/d)) for every cube
    r^3 <= B, the Moebius inversion from box counts to primitive points.

    One naive pass over the box of radius R = floor(B^(1/3)) bins its cells
    by (c, m) into H and its non-primitive solutions by height: V(r) is 8 times
    the sum of H[c, m] * (r // m) over c <= r, and 2*N(r^3) drops the
    non-primitive solutions up to r.  Returns one (r^3, equal, 2*N - sum) per r = 1..R, in
    exact integers."""
    R = _height_radius(B)
    bins = _run_partitioned(partial(_count_chunk, _count_by_height), [(R, 1)], threads, _naive_serial_s(R))
    radii = np.arange(R + 1)
    V = 8 * (np.cumsum(bins[:-1, 1:], axis=0) * (radii[:, None] // radii[1:])).sum(axis=1)
    V, N2 = V.tolist(), (V - 8 * np.cumsum(bins[-1])).tolist()
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
