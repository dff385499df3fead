"""Dirichlet series with pairwise coprimality constraints read off a graph.

A finite simple graph on vertices 1..r encodes which pairs of summation
variables must be coprime.  Dividing the constrained series by the product of
the r zeta factors leaves an Euler product whose p-factor is the multilinear
subset polynomial S_G evaluated at (p^-s1, ..., p^-sr); at s = 1 the factor
collapses to an integer combination sum_k b_k p^-k.  This module builds the
polynomial edge by edge, as numpy arrays of vertex bitmasks and coefficients,
reads the b-vector off it exactly, evaluates the Euler product with a tail bound
read off the factor's own terms (the package's one truncated Euler product;
zeta comes whole from ``_zeta``), and cross-checks the identity against
direct truncation of the constrained series.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from senary.arith import is_prime, primes_up_to

# ``_sg_terms`` folds in one edge at a time and sorts every mask it holds;
# masks never shrink, so a cap on |E| x masks after each edge bounds its whole
# work (a 20-edge matching's 2^20 masks take 0.2 s and 110 MiB at peak).
_MAX_BUILD = 24 << 20
# One bit per vertex keeps every mask inside int64, and every action builds
# an entry per vertex (the b-vector, the exponents, the weight vectors), so a
# huge r is refused before it allocates.
_MAX_VERTICES = 48
_MAX_INTERMEDIATE = 1 << 22  # entries (32 MiB of float64) of one truncated_DG factor


@dataclass(frozen=True)
class CoprimalityGraph:
    """Simple graph on vertices 1..r; edges mark coprime pairs."""

    r: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one vertex")
        if self.r > _MAX_VERTICES:
            raise ValueError(f"a graph has at most {_MAX_VERTICES} vertices, got {self.r}")
        for e in self.edges:
            k, l = e
            if k == l:
                raise ValueError(f"loop at vertex {k}")
            if not (1 <= k < l <= self.r):
                raise ValueError(f"edge {e} out of range or not sorted")

    @classmethod
    def from_edges(cls, r: int, edges) -> "CoprimalityGraph":
        """The graph on 1..r with these edges, each (k, l) or (l, k) once."""
        seen = set()
        for e in edges:
            e = tuple(sorted(e))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return cls(r, frozenset(seen))

    @classmethod
    def parse(cls, spec: str) -> "CoprimalityGraph":
        """Parse 'r=6;edges=1-2,1-3,...' or the built-in name 'senary'; each
        field at most once."""
        if spec == "senary":
            return SENARY_GRAPH
        r, edges, given = None, [], set()
        for part in spec.split(";"):
            key, _, val = part.partition("=")
            if key in given:
                raise ValueError(f"graph field {key!r} given twice")
            given.add(key)
            if key == "r":
                r = _spec_int(key, val)
            elif key == "edges":
                if val:
                    for e in val.split(","):
                        a, _, b = e.partition("-")
                        edges.append((_spec_int(key, a), _spec_int(key, b)))
            else:
                raise ValueError(f"unknown graph field {key!r}")
        if r is None:
            raise ValueError("graph spec must set r=<vertices>")
        return cls.from_edges(r, edges)

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _spec_int(field: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"graph field {field!r}: {token!r} is not an integer") from None


SENARY_GRAPH = CoprimalityGraph.from_edges(
    6, [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
)


def _exponents(G: CoprimalityGraph, s) -> tuple[float, ...]:
    s = tuple(float(v) for v in s)
    if len(s) != G.r:
        raise ValueError(f"need one exponent per vertex ({G.r}), got {len(s)}")
    if not all(math.isfinite(v) for v in s):
        raise ValueError(f"exponents must be finite, got {s}")
    return s


def _sg_terms(G: CoprimalityGraph) -> tuple[np.ndarray, np.ndarray]:
    """S_G as int64 arrays (masks ascending, coefficients nonzero).

    It is built edge by edge from {0: 1}: the subsets with edge e are those
    without it, each with e's vertices joined to its mask and its sign
    flipped, and equal masks are merged.  |E| x masks past ``_MAX_BUILD``,
    the masks counted before the zero coefficients are dropped, is refused."""
    edges = G.edge_list
    masks, coeffs = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for k, l in edges:
        e = (1 << (k - 1)) | (1 << (l - 1))
        masks, merged = np.unique(np.concatenate((masks, masks | e)), return_inverse=True)
        if len(edges) * len(masks) > _MAX_BUILD:
            raise ValueError(f"the subset polynomial's build, {len(edges)} edges x "
                             f"{len(masks)} terms, passes {_MAX_BUILD}")
        grown = np.zeros(len(masks), dtype=np.int64)
        np.add.at(grown, merged, np.concatenate((coeffs, -coeffs)))
        coeffs = grown
    keep = np.flatnonzero(coeffs)
    return masks[keep], coeffs[keep]


def sg_polynomial(G: CoprimalityGraph) -> dict[int, int]:
    """S_G = sum over edge subsets U of (-1)^|U| * prod of x_j over the
    vertices touched by U, as {vertex bitmask: nonzero coefficient} with the
    masks ascending; bit j-1 stands for vertex j (built by ``_sg_terms``)."""
    masks, coeffs = _sg_terms(G)
    return dict(zip(masks.tolist(), coeffs.tolist()))


def _merged_terms(G: CoprimalityGraph, s) -> list[tuple[float, int]]:
    """The coefficients of S_G summed by the exponent sum of their masks, the
    s_j of the mask's bits j added lowest bit first: the nonzero sums as
    (exponent, coefficient) pairs, exponents ascending."""
    masks, coeffs = _sg_terms(G)
    sums = np.zeros(len(masks))
    with np.errstate(over="ignore"):  # a sum past the largest float is inf
        for j, sj in enumerate(s):
            sums = np.where(masks >> j & 1, sums + sj, sums)
    exponents, merged = np.unique(sums, return_inverse=True)
    totals = np.zeros(len(exponents), dtype=np.int64)
    np.add.at(totals, merged, coeffs)
    keep = np.flatnonzero(totals)
    return list(zip(exponents[keep].tolist(), totals[keep].tolist()))


def b_coefficients(G: CoprimalityGraph) -> tuple[int, ...]:
    """b_0..b_r: b_k = sum over edge subsets touching exactly k vertices of
    (-1)^|U|, the coefficients of S_G summed by the degree of their
    monomials (``_merged_terms`` at s = 1)."""
    b = [0] * (G.r + 1)
    for k, coeff in _merged_terms(G, (1.0,) * G.r):
        b[int(k)] = coeff
    return tuple(b)


def euler_factor(G: CoprimalityGraph, p: int, s) -> float:
    """One Euler factor: S_G evaluated at x_j = p^-s_j.  Each term multiplies
    its coefficient by its x_j from the lowest bit up, and the terms are added
    one by one in ascending mask order: a float factor's bytes depend on both
    orders.  A factor, or a power p^-s_j, past the largest float is refused."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    s = _exponents(G, s)
    masks, coeffs = _sg_terms(G)
    try:
        x = [p ** (-sj) for sj in s]
    except OverflowError:
        value = math.inf
    else:
        value = 1  # the empty mask's term, all an edgeless graph has
        if len(masks) > 1:
            terms = coeffs.astype(np.float64)
            with np.errstate(over="ignore", invalid="ignore"):
                for j, xj in enumerate(x):
                    terms = np.where(masks >> j & 1, terms * xj, terms)
                value = float(np.add.accumulate(terms)[-1])  # sequential
    if not math.isfinite(value):
        raise ValueError(
            f"the Euler factor at p = {p}, or one of its powers p^-s_j, passes "
            f"the largest float, {sys.float_info.max:.4g}"
        )
    return value


def euler_factor_exact(G: CoprimalityGraph, p: int, s) -> Fraction:
    """Exact rational Euler factor for integer exponents of either sign, as one
    integer sum sum_m c_m p^(S - S_m) over p^S, where S_m is the exponent sum
    of mask m and S >= 0 the largest S_m (the empty mask has S_m = 0).  The
    coefficients of equal S_m are added first, so each power is taken once."""
    if any(int(sj) != sj for sj in s):
        raise ValueError("exact evaluation needs integer exponents")
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    s = [int(sj) for sj in s]
    if len(s) != G.r:
        raise ValueError(f"need one exponent per vertex ({G.r}), got {len(s)}")
    if sum(abs(sj) for sj in s) >= 1 << 62:
        raise ValueError("the exponents' absolute sum must stay below 2^62")
    masks, coeffs = _sg_terms(G)
    # S_m byte by byte: row v of bits @ s[8b : 8b + 8] sums the s_j of the
    # bits j of v in byte b
    s += [0] * (-G.r % 8)
    bits = np.arange(256)[:, None] >> np.arange(8) & 1
    sums = np.zeros(len(masks), dtype=np.int64)
    for b in range(len(s) // 8):
        sums += (bits @ np.array(s[8 * b : 8 * b + 8], dtype=np.int64))[masks >> 8 * b & 255]
    exponents, merged = np.unique(sums, return_inverse=True)
    merged_coeffs = np.zeros(len(exponents), dtype=np.int64)
    np.add.at(merged_coeffs, merged, coeffs)
    S = int(exponents[-1])
    numerator = sum(c * p ** (S - e) for e, c in zip(exponents.tolist(), merged_coeffs.tolist()))
    return Fraction(numerator, p**S)


def xi(G: CoprimalityGraph, s, prime_limit: int) -> tuple[float, float]:
    """Euler product of the S_G factors over p <= prime_limit, with a rigorous
    absolute bound on what the primes past it change.

    The terms of S_G are merged by exponent: f(p) = 1 + sum_e b_e p^-e (at
    s = 1 the b-vector).  With L = prime_limit and a = sum_e |b_e| (L+1)^-e,
    each omitted |log f(p)| is at most sum_e |b_e| p^-e / (1 - a), and a >= 1/2
    is refused.  Partial summation with pi(x) < 1.25506 x / ln x (Rosser and
    Schoenfeld, Illinois J. Math. 6, 1962) bounds sum_{p > L} p^-e by
    1.25506 e / ((e - 1) L^(e-1) ln L); the bound is |value| times expm1 of
    the summed logs, refused if not finite.  It covers the omitted primes, not
    float rounding: at 10^6 primes two summation orders differ by 6e-12.
    """
    s = _exponents(G, s)
    # the region of absolute convergence; then every float edge sum is >= 1 + 2^-52
    if any(sj <= 0.5 for sj in s):
        raise ValueError(f"each exponent must exceed 1/2, got {s}")
    m = min((s[k - 1] + s[l - 1] for k, l in G.edges), default=math.inf)
    primes = primes_up_to(prime_limit)
    terms = [(e, b) for e, b in _merged_terms(G, s) if e]  # e = 0: the empty mask
    product = np.ones(len(primes))
    for e, b in terms:
        product += b * primes ** (-e)
    value = float(np.prod(product))
    L = prime_limit
    a = sum(abs(b) * (L + 1.0) ** (-e) for e, b in terms)
    if a >= 0.5:
        raise ValueError(
            f"the Euler tail bound at prime limit L = {L} needs "
            f"a(L+1) = sum |b_e| (L+1)^-e below 1/2, got {a:.4g}; raise the prime limit"
        )
    # e / (e - 1) written as 1 + 1 / (e - 1), which stays finite at e = inf
    tail_log = 1.25506 / ((1.0 - a) * math.log(L)) * sum(
        abs(b) * (1.0 + 1.0 / (e - 1.0)) * L ** (1.0 - e) for e, b in terms
    )
    try:
        return value, abs(value) * math.expm1(tail_log)
    except OverflowError:
        raise ValueError(
            f"the Euler tail bound at prime limit {L} and exponent sum {m} "
            "is not finite; raise the prime limit or the exponents"
        ) from None


def _radical_table(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Map each n in 1..N to the index of its radical; return also the
    ascending distinct radicals."""
    rads = np.ones(N + 1, dtype=np.int64)
    for p in primes_up_to(max(N, 2)).tolist():  # at N = 1 the slice of p = 2 is empty
        rads[p::p] *= p
    radicals, idx = np.unique(rads[1:], return_inverse=True)
    return idx, radicals


def _elimination_order(G: CoprimalityGraph) -> list[tuple[int, tuple[int, ...]]]:
    """Min-degree elimination order, ties going to the lower vertex.

    Returns (v, scope) per step: the neighbours v has when it is eliminated,
    which the new factor joins (and which become a clique, the fill-in).
    """
    adj = {v: set() for v in range(1, G.r + 1)}
    for k, l in G.edges:
        adj[k].add(l)
        adj[l].add(k)
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u] |= nbrs - {u}
            adj[u].discard(v)
        order.append((v, tuple(sorted(nbrs))))
    return order


def truncated_DG(G: CoprimalityGraph, s, N: int) -> tuple[float, float]:
    """Truncation of the coprimality-constrained series over n in {1..N}^r,
    plus a rigorous tail bound for the infinite series.

    Terms are grouped by the radical of each n_j (coprimality only sees
    radicals), so the sum is a tensor network over the R distinct radicals
    up to N: a weight vector W_j per vertex (the sum of n^-s_j over n <= N of
    each radical) and the 0/1 coprimality matrix on every edge.  It is
    contracted by variable elimination in min-degree order, ties to the lower
    vertex, one ``np.einsum`` over the factors touching each eliminated
    vertex.  A step whose vertex has w neighbours leaves a factor of R^w
    entries; the senary prism graph has width 3, so it costs O(R^4) with
    R = 31 at N = 50.  The largest such factor is computed before contracting
    and capped at ``_MAX_INTERMEDIATE`` entries, which also caps every
    intermediate inside a step; a larger N raises ``ValueError``.
    """
    s = _exponents(G, s)
    if any(sj <= 1 for sj in s):
        raise ValueError("each exponent must exceed 1 for a convergent tail")
    if N < 1:
        raise ValueError("truncation N must be >= 1")
    if N > 10_000:
        raise ValueError("truncation capped at N = 10^4 (radical-table size)")
    idx, radicals = _radical_table(N)
    R = len(radicals)
    order = _elimination_order(G)
    width = max(len(scope) for _, scope in order)
    if R**width > _MAX_INTERMEDIATE:
        raise ValueError(
            f"truncation N = {N} needs a {R}^{width}-entry intermediate "
            f"(> {_MAX_INTERMEDIATE}); use a smaller N"
        )
    # factors: (vertices, array); W_j[i] = sum of n^-s_j over n <= N with radical i
    ns = np.arange(1, N + 1, dtype=np.float64)
    factors = []
    for j in range(G.r):
        wj = np.zeros(R)
        np.add.at(wj, idx, ns ** (-s[j]))
        factors.append(((j + 1,), wj))
    if G.edges:
        coprime = np.empty((R, R), dtype=bool)
        step = max(1, 2_000_000 // R)
        for lo in range(0, R, step):
            coprime[lo : lo + step] = np.gcd.outer(radicals[lo : lo + step], radicals) == 1
        factors += [(e, coprime) for e in G.edge_list]
    total = 1.0
    for v, scope in order:
        operands = []
        for vertices, arr in factors:
            if v in vertices:
                operands += [arr, list(vertices)]
        factors = [f for f in factors if v not in f[0]]
        out = np.einsum(*operands, list(scope), optimize=("greedy", _MAX_INTERMEDIATE))
        if scope:
            factors.append((scope, out))
        else:  # v closed a connected component
            total *= float(out)
    return total, _dg_tail(G, s, N)


# B_2, B_4, ..., B_20
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798,
    -174611 / 330,
)


def _zeta(s: float) -> float:
    """The Riemann zeta function at finite real s > 1, by Euler-Maclaurin:
    the terms n^-s for n < 10, then the integral, half the n = 10 term and
    the Bernoulli corrections through B_20 at 10.  The first omitted
    correction is below 6e-20 of zeta(s) for every s > 1, so the result is
    good to a few units in the last place (within 3.7e-16 relative of
    50-digit values at 3,000 points of (1, 500])."""
    if not 1 < s < math.inf:  # also NaN
        raise ValueError(f"zeta needs finite s > 1, got {s}")
    N = 10
    # B_2k / (2k)! * s (s+1) ... (s+2k-2) * N^(1-s-2k), from k = 1 up
    term = s * N ** (-s - 1) / 2
    corrections = 0.0
    for k, b in enumerate(_BERNOULLI, start=1):
        corrections += b * term
        # an underflowed term stays 0: past s = 1.34e154 the factor is inf
        term = term and term * (s + 2 * k - 1) * (s + 2 * k) / ((2 * k + 1) * (2 * k + 2) * N * N)
    tail = N ** (1 - s) / (s - 1) + N**-s / 2 + corrections
    # add the small terms first
    return 1.0 + (sum(n**-s for n in range(N - 1, 1, -1)) + tail)


def _dg_tail(G: CoprimalityGraph, s, N: int) -> float:
    """Union bound: some n_j > N, others unconstrained."""
    tail = 0.0
    for j in range(G.r):
        rest = 1.0
        for k in range(G.r):
            if k != j:
                rest *= _zeta(s[k])
        tail += N ** (1.0 - s[j]) / (s[j] - 1.0) * rest
    return tail


def verify_theorem3(G: CoprimalityGraph, s, N: int, prime_limit: int):
    """Compare the truncated constrained series against the product of the
    zeta factors (``_zeta``, to rounding) and the truncated Euler product,
    within the series' union bound and the Euler tail.

    Returns (ok, residual, allowance).  The Euler side runs first, so a bad
    ``prime_limit`` or exponent fails before the costlier truncation.
    """
    s = _exponents(G, s)
    xi_val, xi_tail = xi(G, s, prime_limit)
    lhs, lhs_tail = truncated_DG(G, s, N)
    zfac = math.prod(_zeta(sj) for sj in s)
    residual = lhs - zfac * xi_val
    allowance = lhs_tail + zfac * xi_tail
    return abs(residual) <= allowance, residual, allowance


def tg_series_check(G: CoprimalityGraph, degree_cap: int) -> bool:
    """Exact check of the product identity behind the Euler factor: expanding
    the generating series of the pairwise-vanishing indicator against the
    (1 - x_j) product must reproduce S_G coefficientwise.

    Compares integer coefficients up to total degree ``degree_cap``.
    """
    if not 0 <= degree_cap <= 8:
        raise ValueError(f"degree cap must be between 0 and 8, got {degree_cap}")
    if G.r > 6:
        raise ValueError(f"the T_G series check takes at most 6 vertices, got {G.r}")
    r = G.r
    edges = G.edge_list
    # T coefficients: indicator that every edge has a zero endpoint
    tg: dict[tuple[int, ...], int] = {}
    for n in itertools.product(range(degree_cap + 1), repeat=r):
        if sum(n) > degree_cap:
            continue
        if all(n[k - 1] == 0 or n[l - 1] == 0 for k, l in edges):
            tg[n] = 1
    # multiply by prod_j (1 - x_j)
    prod: dict[tuple[int, ...], int] = dict(tg)
    for j in range(r):
        new: dict[tuple[int, ...], int] = {}
        for expo, c in prod.items():
            new[expo] = new.get(expo, 0) + c
            shifted = list(expo)
            shifted[j] += 1
            if sum(shifted) <= degree_cap:
                key = tuple(shifted)
                new[key] = new.get(key, 0) - c
        prod = new
    lhs = {e: c for e, c in prod.items() if c != 0 and sum(e) <= degree_cap}
    rhs: dict[tuple[int, ...], int] = {}
    for mask, coeff in sg_polynomial(G).items():
        expo = tuple(1 if mask >> j & 1 else 0 for j in range(r))
        if sum(expo) <= degree_cap:
            rhs[expo] = coeff
    return lhs == rhs
