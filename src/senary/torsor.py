"""Descent parametrization of the cubic and the counters built on it.

A nondegenerate solution (x, y) factors through ten descent coordinates
(u, u1, u2, u3, v1, v2, v3, w1, w2, w3): extract u = gcd(y1, y2, y3), then the
pairwise gcds u_j of the reduced y, leaving cofactors w_j; the cubic then
forces w_j | x_j and the quotients v_j satisfy the bilinear relation
u1*v1 + u2*v2 + u3*v3 = 0.  Replacing v by the lattice parameters (r1, r2, r3)
turns the whole solution set into a transparently enumerable family, which is
what the fast exact counter iterates over.

The counter ``torsor_count_V`` loops over the coprime (u1, u2) in Python.
Below them everything is int64 arrays: the orbit representatives are counted
per (u3, w1, w2) row and run of constant P // w3 (``_w_chunks``), these
counts are merged across the planes into their distinct keys (u3, P // w1,
P // w2, P // w3), and one array kernel counts the lattice parameters of each
distinct key once, as two floor sums (``_lattice_counts``).
``verify_bijection`` walks the scalar tuples and lattice points, the
generators ``_uw_tuples`` and ``_lattice_runs``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from senary.arith import is_prime, primes_up_to
from senary.cubic import (
    CountReport,
    SolutionSextuple,
    _bound_name,
    _height_radius,
    _moebius_weights,
    _ranges,
    _run_partitioned,
    _snake,
)


# ---------------------------------------------------------------------------
# coprimality conditions


def pairwise_conditions(u1, u2, u3, w1, w2, w3) -> bool:
    """The elementary coprimality system: u pairwise coprime, (u_j; w_j) = 1,
    w pairwise coprime."""
    return (
        math.gcd(u1, u2) == 1
        and math.gcd(u2, u3) == 1
        and math.gcd(u3, u1) == 1
        and math.gcd(u1, w1) == 1
        and math.gcd(u2, w2) == 1
        and math.gcd(u3, w3) == 1
        and math.gcd(w1, w2) == 1
        and math.gcd(w2, w3) == 1
        and math.gcd(w3, w1) == 1
    )


# ---------------------------------------------------------------------------
# tuple types


@dataclass(frozen=True)
class TorsorTupleA:
    """Descent coordinates with explicit v; bijective with nondegenerate
    solutions."""

    u: int
    u1: int
    u2: int
    u3: int
    v1: int
    v2: int
    v3: int
    w1: int
    w2: int
    w3: int

    def __post_init__(self):
        if min(self.u, self.u1, self.u2, self.u3) < 1:
            raise ValueError("u and u_j must be positive")
        if self.w1 == 0 or self.w2 == 0 or self.w3 == 0:
            raise ValueError("w_j must be nonzero")
        if self.u1 * self.v1 + self.u2 * self.v2 + self.u3 * self.v3 != 0:
            raise ValueError("bilinear relation u1*v1 + u2*v2 + u3*v3 = 0 violated")
        if not pairwise_conditions(self.u1, self.u2, self.u3, self.w1, self.w2, self.w3):
            raise ValueError("coprimality conditions violated")


@dataclass(frozen=True)
class TriProjectivePoint:
    """A point of the resolved variety in P^5 x P^2 x P^2."""

    x: tuple[int, int, int]
    y: tuple[int, int, int]
    Y: tuple[int, int, int]
    Z: tuple[int, int, int]

    def __post_init__(self):
        if all(c == 0 for c in self.x + self.y) or all(c == 0 for c in self.Y) or all(c == 0 for c in self.Z):
            raise ValueError("no projective block may vanish entirely")
        if sum(self.x[i] * self.Z[i] for i in range(3)) != 0:
            raise ValueError("linear relation x . Z = 0 violated")
        for i in range(3):
            for j in range(i + 1, 3):
                if self.y[i] * self.Y[j] != self.y[j] * self.Y[i]:
                    raise ValueError("proportionality y ~ Y violated")
        p = self.Y[0] * self.Z[0]
        if self.Y[1] * self.Z[1] != p or self.Y[2] * self.Z[2] != p:
            raise ValueError("Y_i Z_i must be independent of i")


# ---------------------------------------------------------------------------
# bijections


def solution_to_params_A(s: SolutionSextuple) -> TorsorTupleA:
    """Inverse map via the gcd recipe; round-trips exactly."""
    if s.is_degenerate:
        raise ValueError("descent coordinates need y1*y2*y3 != 0")
    u = math.gcd(s.y1, s.y2, s.y3)
    z1, z2, z3 = s.y1 // u, s.y2 // u, s.y3 // u
    u1 = math.gcd(z2, z3)
    u2 = math.gcd(z3, z1)
    u3 = math.gcd(z1, z2)
    w1, rem1 = divmod(z1, u2 * u3)
    w2, rem2 = divmod(z2, u1 * u3)
    w3, rem3 = divmod(z3, u1 * u2)
    assert rem1 == rem2 == rem3 == 0
    v1, rv1 = divmod(s.x1, w1)
    v2, rv2 = divmod(s.x2, w2)
    v3, rv3 = divmod(s.x3, w3)
    assert rv1 == rv2 == rv3 == 0, "w_j must divide x_j on a solution"
    return TorsorTupleA(u, u1, u2, u3, v1, v2, v3, w1, w2, w3)


def lift_to_X(s: SolutionSextuple) -> TriProjectivePoint:
    """Lift a nondegenerate solution to the resolved variety."""
    t = solution_to_params_A(s)
    Y = (t.u2 * t.u3 * t.w1, t.u1 * t.u3 * t.w2, t.u1 * t.u2 * t.w3)
    Z = (t.u1 * t.w2 * t.w3, t.u2 * t.w1 * t.w3, t.u3 * t.w1 * t.w2)
    return TriProjectivePoint(x=(s.x1, s.x2, s.x3), y=(s.y1, s.y2, s.y3), Y=Y, Z=Z)


# ---------------------------------------------------------------------------
# enumeration helpers

# int64 safety of the array path.  The sum adds n*M*K over the distinct keys,
# M the sum of the orbit sizes of the key's tuples; a (row, q3-run) count adds
# at most 6 times the run length to it.  K counts v in Z^3 with u.v = 0 and
# |v_j| <= q_j <= P, and v1 is fixed by (v2, v3), so K <= (2P+1)^2; the n*M
# over all keys add up to the n*m over all representatives, which is P^3 (one
# descent tuple per positive y-triple).  So every n*M is at most P^3, and
# every n*M*K, every partial sum of them, is at most P^3 (2P+1)^2, which stays
# below 2^63 up to P = 4704.  The packed key, u1 <= u2 <= isqrt(P) < 64 base
# 64 over four digits base P + 1, is below 2^12 (P+1)^4 < 2^60 at P = 4000.
# A kernel key has u2 u3 <= P, so c < u1 <= isqrt(P), u1 q1 + u3 q3 <= 2P^2,
# and a floor sum has m <= u1 u3 <= P, n <= 2P + 1, |lo| <= P + 1,
# |alpha| <= u2 + u3 c <= 2P and |alpha lo + beta| <= 5P^2; its quotient terms
# n(n-1)/2 (alpha // m) and n (b // m) stay below 21P^3 < 2^41.  After them
# 0 <= a, b < m, so a n + b < m (n + 1) <= P (2P + 2), and a Euclid step keeps
# n' = (a n + b) // m <= n and m' = a < m.
_MAX_TORSOR_BOUND = 4000

# Elements laid out at once by a level of the row build (bar the grid slices
# of the rows u3 = u2 = 1, see ``_w_chunks``), and (row, run) counts merged at
# once: enough to amortise the numpy calls, few enough to keep the arrays near
# a few MiB (V(100) raises the peak RSS by 1.3 MiB with this cap, 2.5 with
# twice it, 1.1 with half).  A kernel call takes a quarter: its dozen
# temporaries of two entries per key outgrow glibc's trim threshold at the
# whole cap and fault in afresh each call (1,866 faults at V(100), not 98).
_PLANE_CAP = 1 << 13

# The cells that pay for one worker of the descent, V(m) laying out m^3, in
# the cost rule of ``cubic._run_partitioned`` (calibrated there): a pool of
# two opens from V(266) on.
_DESCENT_WORKER_CELLS = 9_375_000


def _check_torsor_bound(P: int, B: int | None = None):
    if P < 1:
        raise ValueError("box bound must be >= 1")
    if P > _MAX_TORSOR_BOUND:
        raise OverflowError(f"{_bound_name(P, B)} exceeds the int64-checked torsor range")


def _uw_tuples(P: int, w_coprime: bool = True):
    """One representative (n, m, u1, u2, u3, w1, w2, w3) per orbit of the
    tuples with positive entries, u pairwise coprime, (u_j; w_j) = 1 and w
    pairwise coprime (these w conditions only when w_coprime), and the u = 1
    y-box constraints u2*u3*w1 <= P, u1*u3*w2 <= P, u1*u2*w3 <= P, under
    simultaneous permutations of the pairs (u_j, w_j).

    The cubic is symmetric under permuting the indices 1, 2, 3, and so are
    these constraints, the x-box and the lattice count.  The representative
    is the ordered one, (u1, w1) <= (u2, w2) <= (u3, w3) lexicographically;
    u1 <= u2 <= u3 and u2*u3 <= P give u1 <= u2 <= isqrt(P).  m = 6, 3 or 1
    is the orbit size, the number of distinct permutations of the three
    pairs.

    u enters neither the x-box nor the coprimality system, so it is summed
    out: n = P // max(u2*u3*w1, u1*u3*w2, u1*u2*w3) is the number of u >= 1
    whose y-box admits the tuple.

    This scalar generator is the reference enumeration: ``verify_bijection``
    walks its tuples and the lattice points ``_lattice_runs`` yields for
    each, and the tests check the array build ``_w_chunks`` against it."""
    for u1 in range(1, math.isqrt(P) + 1):
        for u2 in range(u1, math.isqrt(P) + 1):
            if math.gcd(u1, u2) != 1:
                continue
            for u3 in range(u2, P // u2 + 1):
                if math.gcd(u1, u3) != 1 or math.gcd(u2, u3) != 1:
                    continue
                for w1 in range(1, P // (u2 * u3) + 1):
                    if w_coprime and math.gcd(w1, u1) != 1:
                        continue
                    y1 = u2 * u3 * w1
                    for w2 in range(w1 if u2 == u1 else 1, P // (u1 * u3) + 1):
                        if w_coprime and (math.gcd(w2, u2) != 1 or math.gcd(w2, w1) != 1):
                            continue
                        y12 = max(y1, u1 * u3 * w2)
                        same12 = u2 == u1 and w2 == w1
                        for w3 in range(w2 if u3 == u2 else 1, P // (u1 * u2) + 1):
                            if w_coprime and (
                                math.gcd(w3, u3) != 1
                                or math.gcd(w3, w1) != 1
                                or math.gcd(w3, w2) != 1
                            ):
                                continue
                            same23 = u3 == u2 and w3 == w2
                            m = 1 if same12 and same23 else 3 if same12 or same23 else 6
                            yield P // max(y12, u1 * u2 * w3), m, u1, u2, u3, w1, w2, w3


def _chunks(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Cut consecutive rows into slices [a, b) whose lengths sum to about
    ``_PLANE_CAP``: a slice ends at the row that reaches the next multiple of
    the cap, so it holds at most the cap plus one row."""
    if not len(lengths):
        return []
    running = np.cumsum(lengths)
    cuts = np.searchsorted(running, np.arange(_PLANE_CAP, running[-1], _PLANE_CAP)) + 1
    edges = [0, *cuts.tolist(), len(lengths)]
    return [(a, b) for a, b in zip(edges, edges[1:]) if a < b]


def _coprime_table(P: int) -> np.ndarray:
    """T[x, y] = (gcd(x, y) == 1) for 1 <= x, y <= P, in a (P+1)^2 bool
    array whose row and column 0 go unused: every prime p <= P strikes out
    the pairs it divides both of.  It takes 1 MB at P = 1000 and 16 MB at
    ``_MAX_TORSOR_BOUND``."""
    T = np.ones((P + 1, P + 1), dtype=bool)
    for p in primes_up_to(max(P, 2)).tolist():  # at P = 1, p = 2 strikes only T[0, 0]
        T[::p, ::p] = False
    return T


def _w_chunks(P: int, u1: int, u2: int, table: np.ndarray, k: int, T: int):
    """Share k of T of the (row, run) counts of the orbit representatives
    with this (u1, u2) (the tuples of ``_uw_tuples``): per grid slice, int64
    keys and their nonzero sums M of orbit sizes, a key in any number of
    blocks, packing u1, u2 base 64 over u3, P - P // w1, P - P // w2,
    P - P // w3 base P + 1.  table is ``_coprime_table(P)``.

    Each level is built from the last and masked by its coprimality
    conditions: the u3, the (u3, w1) rows, of which share k keeps the groups
    of equal (u3, P // w1) that ``_snake`` deals it in row order (a key fixes
    its group), the (u3, w1, w2) rows (by ``_ranges``, in slices of about
    ``_PLANE_CAP`` candidates), and grids of these rows by the w3 in
    1..P // (u1*u2), summed over each run of constant q3 = P // w3; the
    blocks follow the rows, so their groups never fall.  A grid slice takes
    rows until about ``_PLANE_CAP`` cells lie at or past w3 = s3 but lays out
    every w3, and s3 = w2 in the rows u3 = u2 = 1 (the ordering w3 >= w2):
    their slices outgrow the cap (to 456,000 cells at V(1000)), and the mask
    w3 >= s3 drops 37% of the cells laid out.

    A tie w_i = w_j with gcd(w_i, w_j) = 1 forces w_i = w_j = 1, and with it
    u_i = u_j, coprime, forces u_i = u_j = 1.  So only the rows w1 = w2 = 1
    of the plane u1 = u2 = 1 have orbit size 3, and in them the first tuple,
    u = w = (1, 1, 1), orbit size 1, in group 0 of share 0; every other
    tuple counts 6."""
    base, digit = P + 1, P - P // np.arange(1, P + 1)  # digit[w - 1] = P - P // w
    u3 = np.arange(u2, P // u2 + 1)
    u3 = u3[table[u3, u1 * u2]]
    W1 = P // (u2 * u3)
    u3, w1 = np.repeat(u3, W1), _ranges(np.ones_like(W1), W1)
    keep = table[w1, u1]
    if T > 1:  # share k's groups of equal (u3, P // w1), numbered in row order
        keep &= _snake(np.unique(u3 * base + digit[w1 - 1], return_inverse=True)[1], k, T)
    u3, w1 = u3[keep], w1[keep]
    # the orbit ordering: w2 >= w1 when u2 == u1, w3 >= w2 when u3 == u2
    s2 = w1 if u2 == u1 else np.ones_like(w1)
    n2 = P // (u1 * u3) - s2 + 1
    w3 = np.arange(1, P // (u1 * u2) + 1)
    T3 = table[:, 1 : len(w3) + 1]  # the columns w3
    q3 = P // w3
    starts = np.flatnonzero(np.concatenate(([True], q3[1:] != q3[:-1])))  # the q3-runs
    for a, b in _chunks(n2):
        rows = n2[a:b]
        y3, z1, z2 = np.repeat(u3[a:b], rows), np.repeat(w1[a:b], rows), _ranges(s2[a:b], rows)
        keep = table[z2, u2 * z1]
        y3, z1, z2 = y3[keep], z1[keep], z2[keep]
        s3 = np.where(y3 == u2, z2, 1)
        row_key = (((u1 * 64 + u2) * base + y3) * base + digit[z1 - 1]) * base + digit[z2 - 1]
        orbit = np.where((z1 == z2) & (u2 == u1), 3, 6)[:, None]  # the ties
        for c, d in _chunks(len(w3) - s3 + 1):
            # u3*w1 <= P, and w3 is coprime to u3 and w1 when it is to u3*w1
            grid = T3[y3[c:d] * z1[c:d]] & T3[z2[c:d]]
            if y3[c] == u2:  # u3 = u2 = 1: the ordering w3 >= w2
                grid &= w3 >= s3[c:d, None]
            counts = np.add.reduceat(grid, starts, axis=1, dtype=np.int64) * orbit[c:d]
            if u2 == u1 and k == a == c == 0:  # the tuple u = w = (1, 1, 1)
                counts[0, 0] -= 2
            row, run = np.nonzero(counts)
            yield row_key[row + c] * base + digit[starts[run]], counts[row, run]


def _distinct_keys(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of the (keys, M) blocks in increasing order, each with
    the sum of its M; numpy's stable int64 sort is a timsort, for sorted runs."""
    keys, M = (np.concatenate(col) for col in zip(*blocks))
    order = np.argsort(keys, kind="stable")
    keys, M = keys[order], M[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)])
    return keys[first], np.add.reduceat(M, first)


def _floor_sums(lo, hi, alpha, beta, m) -> np.ndarray:
    """Per entry, the sum of floor((alpha v + beta) / m) over the v in
    [lo, hi], 0 where hi < lo, for int64 arrays with m >= 1: the Euclid-like
    ``floor_sum`` of the AtCoder Library (``math.hpp``), one numpy pass per
    step over the entries still live, O(log m) passes."""
    n = np.maximum(hi - lo + 1, 0)
    a, b = alpha, alpha * lo + beta  # v = lo + i, 0 <= i < n
    total = np.zeros(len(n), dtype=np.int64)
    live = np.arange(len(n))
    while len(live):
        qa, a = np.divmod(a, m)
        qb, b = np.divmod(b, m)
        total[live] += n * (n - 1) // 2 * qa + n * qb
        # 0 <= a, b < m: count the points under the line along the other axis
        y = a * n + b
        more = y >= m
        live, y, a, m = live[more], y[more], a[more], m[more]
        n, b = np.divmod(y, m)
        m, a = a, m
    return total


def _inverses(n: int) -> np.ndarray:
    """I[m, r] = r^-1 mod m, in [0, m), for 1 <= m <= n and the r <= n
    coprime to m, and 0 elsewhere: the least x with r x = 1 (mod m)."""
    m, r, x = np.ogrid[: n + 1, : n + 1, : n + 1]
    return np.argmax(r * x % np.maximum(m, 1) == 1, axis=2)


def _lattice_counts(u1, u2, u3, q1, q2, q3, inv: np.ndarray) -> np.ndarray:
    """K per entry: the number of (r1 in {1..u1}, r2, r3) with
    |u1 r2 - u2 r1| <= q3, |u3 r1 - u1 r3| <= q2 and |u2 r3 - u3 r2| <= q1,
    for int64 arrays with u pairwise coprime and q1, q2, q3 >= 0; inv is
    ``_inverses(n)`` for an n >= every u1.

    v = u x r maps these r one to one onto the v in Z^3 with u.v = 0 and
    |v_j| <= q_j.  v1 is an integer exactly when v3 = c v2 (mod u1), c =
    -u2 / u3 mod u1, so the v3 of a v2 number floor((B(v2) - c v2) / u1) -
    floor((-B(-v2) - 1 - c v2) / u1), B(v2) = min(q3, floor((u1 q1 - u2 v2)
    / u3)), and v -> -v pairs the terms: K = 2M + 1 + 2 sum_{|v2| <= M}
    floor((B(v2) - c v2) / u1), M = min(q2, (u1 q1 + u3 q3) // u2).  B is q3
    up to s = floor((u1 q1 - u3 q3) / u2), and past s nested floors make the
    term floor((u1 q1 - (u2 + u3 c) v2) / (u1 u3)): two floor sums."""
    c = -u2 * inv[u1, u3 % u1] % u1  # c = 0 when u1 = 1
    M = np.minimum(q2, (u1 * q1 + u3 * q3) // u2)
    s = np.clip((u1 * q1 - u3 * q3) // u2, -M - 1, M)
    sums = _floor_sums(
        np.concatenate((-M, s + 1)),
        np.concatenate((s, M)),
        np.concatenate((-c, -(u2 + u3 * c))),
        np.concatenate((q3, u1 * q1)),
        np.concatenate((u1, u1 * u3)),
    )
    return 2 * M + 1 + 2 * (sums[: len(M)] + sums[len(M) :])


def _lattice_runs(u1: int, u2: int, u3: int, q1: int, q2: int, q3: int):
    """The points (r1, r2, r3) that ``_lattice_counts`` counts, as runs
    (r1, r2s, r3s) of ranges whose product holds the run's points: for each
    r1 the first two conditions give decoupled r2 and r3 intervals, the
    shorter one is walked, and the third condition cuts the longer one down
    to a range, so one range of a run has length 1."""
    for r1 in range(1, u1 + 1):
        r2s = range(-((q3 - u2 * r1) // u1), (u2 * r1 + q3) // u1 + 1)
        r3s = range(-((q2 - u3 * r1) // u1), (u3 * r1 + q2) // u1 + 1)
        if len(r2s) <= len(r3s):
            for r2 in r2s:
                lo, hi = -((q1 - u3 * r2) // u2), (u3 * r2 + q1) // u2
                yield r1, range(r2, r2 + 1), range(max(lo, r3s.start), min(hi + 1, r3s.stop))
        else:
            for r3 in r3s:
                lo, hi = -((q1 - u2 * r3) // u3), (u2 * r3 + q1) // u3
                yield r1, range(max(lo, r2s.start), min(hi + 1, r2s.stop)), range(r3, r3 + 1)


def _keyed_sum(P: int, keys: np.ndarray, M: np.ndarray, inv: np.ndarray) -> int:
    """The sum of n*M*K over distinct packed keys, in kernel calls of a quarter of ``_PLANE_CAP`` keys."""
    base, size, total = P + 1, (_PLANE_CAP + 3) // 4, 0
    for a in range(0, len(keys), size):
        key, d3 = np.divmod(keys[a : a + size], base)
        key, d2 = np.divmod(key, base)
        key, d1 = np.divmod(key, base)
        (u1, u2), u3 = np.divmod(key // base, 64), key % base
        q1, q2, q3 = P - d1, P - d2, P - d3
        # P // max(a, b, c) = min(P // a, P // b, P // c), P // (u * w) = (P // w) // u
        n = np.minimum(np.minimum(q1 // (u2 * u3), q2 // (u1 * u3)), q3 // (u1 * u2))
        total += int(np.dot(n * M[a : a + size], _lattice_counts(u1, u2, u3, q1, q2, q3, inv)))
    return total


def _torsor_V_chunk(P: int, k: int, T: int) -> int:
    """Worker k's share of V(P) / 8 when T workers split it, the sum of
    n*M*K over the keys of share k of each (u1, u2) plane of ``_w_chunks``;
    T = 1 gives all of V(P) / 8.  A tuple's number n of admissible u and its
    lattice count K depend only on its key (u3, q1, q2, q3), q_j = P // w_j,
    so the shares count each key once (at P = 300, 3.8M tuples give 1.9M
    (row, q3-run) counts and 0.3M keys).  Keys rise with the groups, so each
    merge of ``_PLANE_CAP`` counts takes the whole kernel calls below the last
    key's group and keeps the rest, under a call plus a group, open."""
    coprime, inv = _coprime_table(P), _inverses(math.isqrt(P))
    planes = itertools.combinations_with_replacement(range(1, math.isqrt(P) + 1), 2)
    blocks = (b for u1, u2 in planes if math.gcd(u1, u2) == 1 for b in _w_chunks(P, u1, u2, coprime, k, T))
    keys = M = np.zeros(0, np.int64)  # the open keys
    total, pending, held = 0, [], 0  # the (row, run) counts not merged yet
    for block in blocks:
        pending.append(block)
        held += len(block[0])
        if held >= _PLANE_CAP:
            keys, M = _distinct_keys([(keys, M), *pending])
            cut = np.searchsorted(keys, keys[-1] // (P + 1) ** 2 * (P + 1) ** 2)
            cut -= cut % ((_PLANE_CAP + 3) // 4)
            total += _keyed_sum(P, keys[:cut], M[:cut], inv)
            keys, M, pending, held = keys[cut:], M[cut:], [], 0
    return total + _keyed_sum(P, *_distinct_keys([(keys, M), *pending]), inv)


def _run_V_terms(terms, threads: int) -> int:
    """sum c V(m) over the (m, c) terms, each dealt as the shares of
    ``_torsor_V_chunk``; the descent lays out sum m^3 grid cells."""
    cells = sum(m**3 for m, _ in terms)
    return 8 * _run_partitioned(_torsor_V_chunk, terms, threads, cells, _DESCENT_WORKER_CELLS)


def torsor_count_V(P: int, threads: int = 1) -> CountReport:
    """Exact V(P) through the descent parametrization: enumerate positive
    (u1, u2, u3, w1, w2, w3) under the y-box and coprimality constraints, one
    per orbit of index permutations, count lattice parameters (r1, r2, r3)
    meeting the x-box constraints, times the number of admissible u in closed
    form and the orbit size, and multiply by 8 for the w-sign orbits.

    The tuples are counted per (u3, w1, w2) row and run of constant
    P // w3, and the kernel counts the lattice parameters of each distinct
    key (u3, P // w1, P // w2, P // w3) once (``_torsor_V_chunk``).  With
    threads = T > 1 and a count above the pool's cost line
    (``cubic._run_partitioned``), one pool of T workers takes the T shares
    of ``_torsor_V_chunk``, whole (u3, P // w1) groups in snake order.
    Bounds above ``_MAX_TORSOR_BOUND`` raise OverflowError before any work,
    since the int64 sums could wrap there."""
    _check_torsor_bound(P)
    t0 = time.perf_counter()
    total = _run_V_terms([(P, 1)], threads)
    return CountReport(P, "torsor", total, time.perf_counter() - t0)


def torsor_count_N(B: int, threads: int = 1) -> CountReport:
    """Exact N(B) as the Moebius sieve over the descent V count.  Each point
    counted by V(R), R = floor(B^(1/3)), is g times a primitive point of the
    box of radius R // g, g the gcd of its coordinates; Moebius inversion
    gives 2N(B) = sum_{d <= R} mu(d) V(R // d), the factor 2 being the +/-
    pair of each rational point.

    The terms are grouped by m = R // d into c_m V(m), c_m the sum of the
    mu(d) with R // d = m (8 values of V in place of 19 at R = 30, 63 in
    place of 1,309 at R = 2154).  With threads = T > 1 and a count above
    the pool's cost line, one pool of T workers takes the T shares of every
    V(m) with c_m != 0, and the partitioner weights each by c_m."""
    R = _height_radius(B, _check_torsor_bound)
    t0 = time.perf_counter()
    total = _run_V_terms(_moebius_weights(R).items(), threads)
    return CountReport(B, "torsor-primitive", total // 2, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# bijection verification


def verify_bijection(P: int, drop_w_coprimality: bool = False) -> bool:
    """Enumerate every lattice-parametrized tuple with image in the P-box,
    map forward, and compare the multiset of images with naive enumeration.
    True iff the map is a bijection onto the box solutions.  It walks the
    tuples of ``_uw_tuples`` and, for each, the points of ``_lattice_runs``."""
    from senary.cubic import naive_count_V

    images: dict[tuple, int] = {}
    for n, _, *uw in _uw_tuples(P, not drop_w_coprimality):
        # every distinct permutation of the representative's pairs (u_j, w_j)
        orbit = dict.fromkeys(itertools.permutations(zip(uw[:3], uw[3:])))
        for ((u1, w1), (u2, w2), (u3, w3)), u, s1, s2, s3 in itertools.product(
            orbit, range(1, n + 1), (1, -1), (1, -1), (1, -1)
        ):
            a1, a2, a3 = s1 * w1, s2 * w2, s3 * w3
            y = (u * u2 * u3 * a1, u * u1 * u3 * a2, u * u1 * u2 * a3)
            for r1, r2s, r3s in _lattice_runs(u1, u2, u3, P // w1, P // w2, P // w3):
                for r2, r3 in itertools.product(r2s, r3s):
                    x = (a1 * (u2 * r3 - u3 * r2), a2 * (u3 * r1 - u1 * r3), a3 * (u1 * r2 - u2 * r1))
                    key = x + y
                    images[key] = images.get(key, 0) + 1
    # Images satisfy the cubic and the box constraints by construction, so it
    # suffices to check: no collisions, and the image count matches the naive
    # enumeration (a subset of equal finite size is the whole set).
    return set(images.values()) <= {1} and len(images) == naive_count_V(P).count


# ---------------------------------------------------------------------------
# finite-field point counts

_MAX_FP_PRIME = 31  # count_O_Fp holds p^5 int64 cells, 230 MB at p = 31


def count_O_Fp(p: int) -> int:
    """Brute-force count of F_p points of the ten-coordinate descent scheme:
    (u, v, u_j, w_j) with u1 v1 + u2 v2 + u3 v3 = 0, some monomial
    u_i u_k w_j w_k nonzero, and (u, v) != 0.  The (u, v) block is counted by
    the kernel dimension of the linear form v -> u . v, reducing the loop to
    the six (u_j, w_j) variables."""
    if not is_prime(p) or p > _MAX_FP_PRIME:
        raise ValueError(f"p must be a prime <= {_MAX_FP_PRIME}")
    rng = np.arange(p, dtype=np.int64)
    total = 0
    for u1 in range(p):  # chunk the 6D grid over u1 to bound memory
        U2, U3, W1, W2, W3 = np.meshgrid(rng, rng, rng, rng, rng, indexing="ij", sparse=True)
        us = {1: u1, 2: U2, 3: U3}
        ws = {1: W1, 2: W2, 3: W3}
        mono = False
        for i, j, k in itertools.permutations((1, 2, 3)):
            mono = mono | (((us[i] * us[k]) % p != 0) & ((ws[j] * ws[k]) % p != 0))
        u_nonzero = (u1 != 0) | (U2 != 0) | (U3 != 0)
        block = np.where(u_nonzero, p * p**2 - 1, p * p**3 - 1)
        total += int((block * mono).sum())
    return total


def _projective_reps(n: int, p: int):
    """Representatives of P^(n-1)(F_p): first nonzero coordinate equals 1."""
    for lead in range(n):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=n - 1 - lead):
            yield prefix + tail


def count_X_Fp(p: int) -> int:
    """Brute-force count of F_p points of the resolved variety in
    P^5 x P^2 x P^2, enumerating projective representatives and testing the
    three defining equation families."""
    if not is_prime(p) or p > 7:
        raise ValueError("p must be a prime <= 7")
    P2 = list(_projective_reps(3, p))
    P5 = list(_projective_reps(6, p))
    count = 0
    for Y in P2:
        for Z in P2:
            d = Y[0] * Z[0]
            if (Y[1] * Z[1] - d) % p or (Y[2] * Z[2] - d) % p:
                continue
            for xy in P5:
                x, y = xy[:3], xy[3:]
                if (x[0] * Z[0] + x[1] * Z[1] + x[2] * Z[2]) % p:
                    continue
                if (
                    (y[0] * Y[1] - y[1] * Y[0]) % p
                    or (y[0] * Y[2] - y[2] * Y[0]) % p
                    or (y[1] * Y[2] - y[2] * Y[1]) % p
                ):
                    continue
                count += 1
    return count
