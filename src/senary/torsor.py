"""Descent parametrization of the cubic and the counters built on it.

A nondegenerate solution (x, y) factors through ten descent coordinates
(u, u1, u2, u3, v1, v2, v3, w1, w2, w3): extract u = gcd(y1, y2, y3), then the
pairwise gcds u_j of the reduced y, leaving cofactors w_j; the cubic then
forces w_j | x_j and the quotients v_j satisfy the bilinear relation
u1*v1 + u2*v2 + u3*v3 = 0.  Replacing v by the lattice parameters (r1, r2, r3)
turns the whole solution set into a transparently enumerable family, which is
what the fast exact counter iterates over.

The counters run on int64 arrays from the first level down, one pass per
count: ``torsor_count_V`` counts V(P) and ``torsor_count_N`` the Moebius sum
of c_m V(m) over its terms.  The orbit representatives of every term and
coprime (u1, u2) plane are counted per (u3, w1, w2) row and run of constant
m // w3 (``_w_chunks``), these counts are merged across the planes and terms
into their distinct keys (u, m // w1, m // w2, m // w3), and one array kernel
counts the lattice parameters of each distinct key, as two floor sums
(``_lattice_counts``).
``verify_bijection`` walks the scalar tuples and lattice points, the
generators ``_uw_tuples`` and ``_lattice_runs``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import partial

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
# M the sum of c_m times the orbit sizes of the key's tuples of each V(m); a
# (row, q3-run) count adds c_m times at most 6 times the run length to it.  K
# counts v in Z^3 with u.v = 0 and |v_j| <= q_j <= m, and v1 is fixed by
# (v2, v3), so K <= (2m+1)^2 for a key of V(m).  The n*M of V(m) alone over
# all its keys add up to the n*m over all its representatives, which is m^3
# (one descent tuple per positive y-triple), so its n*M*K add up to at most
# m^3 (2m+1)^2.  A key's n and K depend on (u, q) alone, not on its term, so
# with the signed weights every |n*M*K|, and every partial sum of them, is at
# most the sum of |c_m| m^3 (2m+1)^2 over the terms.  For V(P) that is
# P^3 (2P+1)^2, below 2^63 up to P = 4704; for N(B), R = floor(B^(1/3)), the
# c_m sum mu(d) over the d with R // d = m, so it is at most the sum over all
# d <= R of (R/d)^3 (2R/d+1)^2 <= zeta(3) R^3 (2R+1)^2, below 2^63 up to
# R = 4534 (a test sums it exactly at R = 4000).  The packed key,
# u1 <= u2 <= isqrt(R) < 64 base 64 over four digits base R + 1, is below
# 2^12 (R+1)^4 < 2^60 at R = 4000.
# A kernel key has u2 u3 <= P, so c < u1 <= isqrt(P), u1 q1 + u3 q3 <= 2P^2,
# and a floor sum has m <= u1 u3 <= P, n <= 2P + 1, |lo| <= P + 1,
# |alpha| <= u2 + u3 c <= 2P and |alpha lo + beta| <= 5P^2; its quotient terms
# n(n-1)/2 (alpha // m) and n (b // m) stay below 21P^3 < 2^41.  After them
# 0 <= a, b < m, so a n + b < m (n + 1) <= P (2P + 2), and a Euclid step keeps
# n' = (a n + b) // m <= n and m' = a < m.
_MAX_TORSOR_BOUND = 4000

# Elements laid out at once by a level of the row build (a grid slice may lay
# out about twice it, see ``_w_chunks``), and (row, run) counts merged at
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


def _chunks(lengths: np.ndarray, breaks: np.ndarray | None = None) -> list[tuple[int, int]]:
    """Cut consecutive rows into slices [a, b) whose lengths sum to about
    ``_PLANE_CAP``: a slice ends at the row that reaches the next multiple of
    the cap, so it holds at most the cap plus one row, and before every row
    where ``breaks`` is True."""
    if not len(lengths):
        return []
    running = np.cumsum(lengths)
    edges = np.zeros(len(lengths) + 1, dtype=bool)  # edges[i]: a slice starts at row i
    edges[np.searchsorted(running, np.arange(_PLANE_CAP, running[-1], _PLANE_CAP)) + 1] = True
    edges[[0, -1]] = True
    if breaks is not None:
        edges[:-1] |= breaks
    edges = np.flatnonzero(edges).tolist()
    return list(zip(edges, edges[1:]))


def _coprime_table(P: int) -> np.ndarray:
    """T[x, y] = (gcd(x, y) == 1) for 1 <= x, y <= P, in a (P+1)^2 bool
    array whose row and column 0 go unused: every prime p <= P strikes out
    the pairs it divides both of.  It takes 1 MB at P = 1000 and 16 MB at
    ``_MAX_TORSOR_BOUND``."""
    T = np.ones((P + 1, P + 1), dtype=bool)
    for p in primes_up_to(max(P, 2)).tolist():  # at P = 1, p = 2 strikes only T[0, 0]
        T[::p, ::p] = False
    return T


def _w_chunks(R: int, terms: dict[int, int], table: np.ndarray, k: int, T: int):
    """Share k of T of the (row, run) counts of the orbit representatives of
    every V(m) in ``terms``, m -> c_m with every m <= R (the tuples of
    ``_uw_tuples(m)``): per grid slice, int64 keys and their nonzero sums M
    of c_m times the orbit sizes, a key in any number of blocks, packing
    u1, u2 base 64 over u3, R - q1, R - q2, R - q3 base R + 1, q_j = m // w_j.
    table is ``_coprime_table(R)``.

    The rows of all terms and planes are built at once, each level from the
    last and masked by its coprimality conditions: the (m, c_m, u1, u2) of
    every term and coprime plane, in order of m and then (u1, u2); their u3;
    the (u3, w1) rows, of which share k keeps, in each (m, u1, u2), the
    groups of equal (u3, m // w1) that ``_snake`` deals it in row order (a
    key fixes its group); the (u3, w1, w2) rows (by ``_ranges``, in slices
    of about ``_PLANE_CAP`` candidates); and grids of these rows by w3,
    summed over each run of constant q3 = m // w3.  A term's blocks follow
    its rows, so its groups never fall.

    A grid slice takes rows of one term and one width m // (u1*u2), so they
    share its q3-runs, until about ``_PLANE_CAP`` cells lie at or past
    w3 = s3, and lays out the w3 from its rows' least s3 to that width.
    s3 = w2 in the rows u3 = u2 = 1 (the ordering w3 >= w2) and 1 in all
    others.  Those tie rows take slices of their own, and each (u3, w1) row
    of them whose w2 candidates would fill a cap at full width starts one,
    so that a slice lays out about twice the cap at most.

    A tie w_i = w_j with gcd(w_i, w_j) = 1 forces w_i = w_j = 1, and with it
    u_i = u_j, coprime, forces u_i = u_j = 1.  So only the rows w1 = w2 = 1
    of the plane u1 = u2 = 1 have orbit size 3, and in them the first tuple,
    u = w = (1, 1, 1), orbit size 1, in group 0 of share 0; every other
    tuple counts 6."""
    base, s, ms = R + 1, math.isqrt(R), sorted(terms)
    u1, u2 = (x + 1 for x in np.nonzero(np.triu(table[1 : s + 1, 1 : s + 1])))
    m, c = np.repeat(ms, len(u1)), np.repeat([terms[x] for x in ms], len(u1))
    u1, u2 = np.tile(u1, len(ms)), np.tile(u2, len(ms))
    keep = u2 * u2 <= m  # u2 <= u3 and u2 * u3 <= m
    m, c, u1, u2 = m[keep], c[keep], u1[keep], u2[keep]
    n = m // u2 - u2 + 1  # u3 in u2..m // u2, coprime to u1 * u2
    i, u3 = np.repeat(np.arange(len(m)), n), _ranges(u2, n)
    keep = table[u3, (u1 * u2)[i]]
    i, u3 = i[keep], u3[keep]
    n = m[i] // (u2[i] * u3)  # w1 in 1..m // (u2 * u3), coprime to u1
    i, u3, w1 = np.repeat(i, n), np.repeat(u3, n), _ranges(np.ones_like(n), n)
    keep = table[w1, u1[i]]
    if T > 1:  # share k's groups of equal (u3, m // w1), numbered in row order per (m, u1, u2)
        first, q1 = np.concatenate(([True], i[1:] != i[:-1])), m[i] // w1
        group = np.cumsum(first | np.concatenate(([True], (u3[1:] != u3[:-1]) | (q1[1:] != q1[:-1]))))
        keep &= _snake(group - np.maximum.accumulate(np.where(first, group, 0)), k, T)
    i, u3, w1 = i[keep], u3[keep], w1[keep]
    m, c, u1, u2 = m[i], c[i], u1[i], u2[i]
    width = m // (u1 * u2)  # w3 <= m // (u1 * u2)
    # the orbit ordering: w2 >= w1 when u2 == u1, w3 >= w2 when u3 == u2
    tie12 = np.where(u1 == u2, w1, 0)  # w2 = tie12 is the tie w1 = w2
    s2 = np.maximum(tie12, 1)
    n2 = m // (u1 * u3) - s2 + 1
    tie = u3 == u2  # u3 = u2 = 1
    prefix = ((u1 * 64 + u2) * base + u3) * base + R - m // w1
    # rows of one kind share grid slices: a new kind starts at a new term or
    # width, at the tie rows, and at each tie row that fills a cap
    kind = m * base + width
    kind = np.concatenate(([True], (kind[1:] != kind[:-1]) | (tie[1:] != tie[:-1])))
    kind = np.cumsum(kind | tie & (n2 * n2 >= _PLANE_CAP))
    u2w1, u3w1 = u2 * w1, u3 * w1
    runs = {}  # (m, s3, width): the first column of each q3-run and its digit R - q3
    for a, b in _chunks(n2):
        rows = n2[a:b]
        j, z2 = np.repeat(np.arange(a, b), rows), _ranges(s2[a:b], rows)
        keep = table[z2, u2w1[j]]
        j, z2 = j[keep], z2[keep]
        mj, wj, tj, y3z1, kj = m[j], width[j], tie[j], u3w1[j], kind[j]
        row_key = prefix[j] * base + R - mj // z2
        weight = c[j] * np.where(z2 == tie12[j], 3, 6)  # the ties
        lengths = wj - np.where(tj, z2 - 1, 0)  # the cells at or past s3
        for e, f in _chunks(lengths, np.concatenate(([False], kj[1:] != kj[:-1]))):
            mm, w, t = int(mj[e]), int(wj[e]), bool(tj[e])
            s3 = int(z2[e:f].min()) if t else 1
            if (mm, s3, w) not in runs:
                q3 = mm // np.arange(s3, w + 1)
                starts = np.flatnonzero(np.concatenate(([True], q3[1:] != q3[:-1])))
                runs[mm, s3, w] = starts, R - q3[starts]
            starts, digits = runs[mm, s3, w]
            # u3*w1 <= m, and w3 is coprime to u3 and w1 when it is to u3*w1
            cols = table[:, s3 : w + 1]
            grid = cols[y3z1[e:f]] & cols[z2[e:f]]
            if t:  # u3 = u2 = 1: the ordering w3 >= w2
                grid &= np.arange(s3, w + 1) >= z2[e:f, None]
            counts = np.add.reduceat(grid, starts, axis=1, dtype=np.int64) * weight[e:f, None]
            if t and s3 == 1:  # the tuple u = w = (1, 1, 1), at w3 = 1
                counts[:, 0] -= (z2[e:f] == 1) * (weight[e:f] // 3 * 2)
            row, run = np.nonzero(counts)
            yield row_key[row + e] * base + digits[run], counts[row, run]


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


def _keyed_sum(R: int, keys: np.ndarray, M: np.ndarray, inv: np.ndarray) -> int:
    """The sum of n*M*K over distinct packed keys of ``_w_chunks(R, ...)``,
    in kernel calls of a quarter of ``_PLANE_CAP`` keys."""
    base, size, total = R + 1, (_PLANE_CAP + 3) // 4, 0
    for a in range(0, len(keys), size):
        key, d3 = np.divmod(keys[a : a + size], base)
        key, d2 = np.divmod(key, base)
        key, d1 = np.divmod(key, base)
        (u1, u2), u3 = np.divmod(key // base, 64), key % base
        q1, q2, q3 = R - d1, R - d2, R - d3
        # m // max(a, b, c) = min(m // a, m // b, m // c), m // (u * w) = (m // w) // u
        n = np.minimum(np.minimum(q1 // (u2 * u3), q2 // (u1 * u3)), q3 // (u1 * u2))
        total += int(np.dot(n * M[a : a + size], _lattice_counts(u1, u2, u3, q1, q2, q3, inv)))
    return total


def _torsor_V_chunk(R: int, k: int, T: int, terms: dict[int, int] | None = None) -> int:
    """Worker k's share of sum c_m V(m) / 8 over ``terms`` (m -> c_m, every
    m <= R; V(R) alone by default) when T workers split it, the sum of
    n*M*K over the keys of share k of ``_w_chunks``; T = 1 gives the whole
    sum.  A tuple's number n of admissible u and its lattice count K depend
    only on its key (u, q1, q2, q3), q_j = m // w_j, whatever its term, so
    one coprime table, one inverse table and one stream of kernel calls
    serve every term, and the shares of V(R) count each key once (at R = 300,
    3.8M tuples give 1.9M (row, q3-run) counts and 0.3M keys).  A term's keys
    rise with its groups, so each merge of ``_PLANE_CAP`` counts takes the
    whole kernel calls below the group of the last count merged and keeps
    the rest, under a call plus a group per term, open."""
    coprime, inv = _coprime_table(R), _inverses(math.isqrt(R))
    base2 = (R + 1) ** 2
    keys = M = np.zeros(0, np.int64)  # the open keys
    total, pending, held = 0, [], 0  # the (row, run) counts not merged yet
    for block in _w_chunks(R, terms or {R: 1}, coprime, k, T):
        pending.append(block)
        held += len(block[0])
        if held >= _PLANE_CAP:
            keys, M = _distinct_keys([(keys, M), *pending])
            cut = np.searchsorted(keys, block[0][-1] // base2 * base2)
            cut -= cut % ((_PLANE_CAP + 3) // 4)
            total += _keyed_sum(R, keys[:cut], M[:cut], inv)
            keys, M, pending, held = keys[cut:], M[cut:], [], 0
    return total + _keyed_sum(R, *_distinct_keys([(keys, M), *pending]), inv)


def _run_V_terms(terms: dict[int, int], threads: int) -> int:
    """sum c_m V(m) over the terms m -> c_m, dealt as the shares of
    ``_torsor_V_chunk``; the descent lays out sum m^3 grid cells."""
    R = max(terms)
    share = partial(_torsor_V_chunk, R, terms=terms)
    return 8 * _run_partitioned(share, threads, sum(m**3 for m in terms), _DESCENT_WORKER_CELLS)


def torsor_count_V(P: int, threads: int = 1) -> CountReport:
    """Exact V(P) through the descent parametrization: enumerate positive
    (u1, u2, u3, w1, w2, w3) under the y-box and coprimality constraints, one
    per orbit of index permutations, count lattice parameters (r1, r2, r3)
    meeting the x-box constraints, times the number of admissible u in closed
    form and the orbit size, and multiply by 8 for the w-sign orbits.

    The tuples are counted per (u3, w1, w2) row and run of constant
    P // w3, and the kernel counts the lattice parameters of each distinct
    key (u, P // w1, P // w2, P // w3) once (``_torsor_V_chunk``).  With
    threads = T > 1 and a count above the pool's cost line
    (``cubic._run_partitioned``), one pool of T workers takes the T shares
    of ``_torsor_V_chunk``, whole (u3, P // w1) groups in snake order.
    Bounds above ``_MAX_TORSOR_BOUND`` raise OverflowError before any work,
    since the int64 sums could wrap there."""
    _check_torsor_bound(P)
    t0 = time.perf_counter()
    total = _run_V_terms({P: 1}, threads)
    return CountReport(P, "torsor", total, time.perf_counter() - t0)


def torsor_count_N(B: int, threads: int = 1) -> CountReport:
    """Exact N(B) as the Moebius sieve over the descent V count.  Each point
    counted by V(R), R = floor(B^(1/3)), is g times a primitive point of the
    box of radius R // g, g the gcd of its coordinates; Moebius inversion
    gives 2N(B) = sum_{d <= R} mu(d) V(R // d), the factor 2 being the +/-
    pair of each rational point.

    The terms are grouped by m = R // d into c_m V(m), c_m the sum of the
    mu(d) with R // d = m (8 values of V in place of 19 at R = 30, 63 in
    place of 1,309 at R = 2154).  One pass of ``_torsor_V_chunk`` counts
    all of them: the rows of every term are built together, c_m weights
    their orbit sizes, and a key (u, m // w1, m // w2, m // w3) that several
    terms share can reach the kernel once for all of them (1,677 kernel
    entries at N(27000), where the terms have 1,779 distinct keys between
    them).  With threads = T > 1 and a count above the pool's cost line, one
    pool of T workers takes its T shares, each share the groups the snake
    deals it in every (m, u1, u2)."""
    R = _height_radius(B, _check_torsor_bound)
    t0 = time.perf_counter()
    total = _run_V_terms(_moebius_weights(R), threads)
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
