"""Brute-force reference enumerations, independent of the package internals.

Everything here iterates plain Python integers over full boxes with no
symmetry tricks, so it stays trustworthy (and slow); use only for tiny bounds.
``forward_map`` writes out the descent's forward map, which the package runs
only inline, inside ``verify_bijection``.
Two sections keep the scalar form of a kernel that the package now runs over
arrays: the descent counter's lattice count (``senary.torsor``), which counts
the runs of the package's own scalar enumerator, and the archimedean
density's inner integral (``senary.peyre``).  A last section keeps the
Fraction form of the per-prime Euler-factor identities and of a graph's Euler
factor, which the package computes over the integers, the per-mask loop of
the graph Euler product, which the package runs over mask arrays, and the
scalar prefactor identity of the paper.
"""

import itertools
import math
from fractions import Fraction


def cubic(x1, x2, x3, y1, y2, y3):
    return x1 * y2 * y3 + x2 * y1 * y3 + x3 * y1 * y2


def box_solutions(P, include_degenerate=False):
    """All integer sextuples in [-P, P]^6 on the cubic with y1*y2*y3 != 0
    (or without that restriction, excluding the zero tuple)."""
    out = []
    rng = range(-P, P + 1)
    for t in itertools.product(rng, repeat=6):
        if not include_degenerate and t[3] * t[4] * t[5] == 0:
            continue
        if include_degenerate and all(v == 0 for v in t):
            continue
        if cubic(*t) == 0:
            out.append(t)
    return out


def exhaustive_V(P):
    return len(box_solutions(P))


def exhaustive_primitive_pairs(P):
    sols = [t for t in box_solutions(P) if math.gcd(*t) == 1]
    assert len(sols) % 2 == 0
    return len(sols) // 2


def solutions_via_x3(P):
    """Box solutions with y1*y2*y3 != 0, found by solving for x3 (faster than
    the full 6-fold product; still plain integers)."""
    out = []
    rng = range(-P, P + 1)
    ys = [v for v in rng if v != 0]
    for y1, y2, y3 in itertools.product(ys, repeat=3):
        den = y1 * y2
        for x1 in rng:
            a = x1 * y2 * y3
            for x2 in rng:
                num = -(a + x2 * y1 * y3)
                if num % den:
                    continue
                x3 = num // den
                if abs(x3) <= P:
                    out.append((x1, x2, x3, y1, y2, y3))
    return out


def forward_map(t):
    """The descent's forward map on a tuple with fields u, u_j, v_j and w_j:
    (w1 v1, w2 v2, w3 v3, u u2 u3 w1, u u1 u3 w2, u u1 u2 w3)."""
    return (
        t.w1 * t.v1,
        t.w2 * t.v2,
        t.w3 * t.v3,
        t.u * t.u2 * t.u3 * t.w1,
        t.u * t.u1 * t.u3 * t.w2,
        t.u * t.u1 * t.u2 * t.w3,
    )


def descent_uw_tuples(P, w_coprime=True):
    """Every positive (u1, u2, u3, w1, w2, w3) in the u = 1 y-box
    (u2*u3*w1, u1*u3*w2, u1*u2*w3 all <= P) with u pairwise coprime and, when
    w_coprime, also (u_j; w_j) = 1 and w pairwise coprime; each tuple once."""
    out = []
    for u1 in range(1, P + 1):
        for u2 in range(1, P // u1 + 1):
            for u3 in range(1, P // max(u1, u2) + 1):
                for w1 in range(1, P // (u2 * u3) + 1):
                    for w2 in range(1, P // (u1 * u3) + 1):
                        for w3 in range(1, P // (u1 * u2) + 1):
                            pairs = [(u1, u2), (u2, u3), (u3, u1)]
                            if w_coprime:
                                pairs += [(u1, w1), (u2, w2), (u3, w3)]
                                pairs += [(w1, w2), (w2, w3), (w3, w1)]
                            if all(math.gcd(a, b) == 1 for a, b in pairs):
                                out.append((u1, u2, u3, w1, w2, w3))
    return out


def plane_point_count(u1, u2, u3, q1, q2, q3):
    """Count v in Z^3 with u1 v1 + u2 v2 + u3 v3 = 0 and |v_j| <= q_j, for
    positive u, by a loop over every (v2, v3) of the box."""
    count = 0
    for v2 in range(-q2, q2 + 1):
        for v3 in range(-q3, q3 + 1):
            v1, rem = divmod(-(u2 * v2 + u3 * v3), u1)
            count += rem == 0 and abs(v1) <= q1
    return count


# --- descent counter: the scalar lattice kernel ------------------------------
# The one-tuple-at-a-time form of the torsor V counter that the array kernel
# in ``senary.torsor`` replaces.  It walks the package's scalar ``_uw_tuples``
# and counts the runs of its scalar ``_lattice_runs``; the tests check both
# by brute force (``descent_uw_tuples`` and ``plane_point_count`` above, and a
# box of r for the runs).


def r_pair_count(u1, u2, u3, q1, q2, q3):
    """Count (r1 in {1..u1}, r2, r3) with |u1 r2 - u2 r1| <= q3,
    |u3 r1 - u1 r3| <= q2 and |u2 r3 - u3 r2| <= q1, run by run."""
    from senary.torsor import _lattice_runs

    return sum(len(r2s) * len(r3s) for _, r2s, r3s in _lattice_runs(u1, u2, u3, q1, q2, q3))


def torsor_V_chunk(P):
    """Sum of n*m*K over the orbit representatives, one scalar kernel call
    per representative; V(P) = 8 * torsor_V_chunk(P)."""
    from senary.torsor import _uw_tuples

    total = 0
    for n, m, u1, u2, u3, w1, w2, w3 in _uw_tuples(P):
        total += n * m * r_pair_count(u1, u2, u3, P // w1, P // w2, P // w3)
    return total


# --- archimedean density: the scalar inner integral ------------------------


def tail_plus(alpha: float, s: float) -> float:
    # sum_{k>=3} z^k/k at z = alpha/(alpha+s); equals -ln(1-z) - z - z^2/2
    z = alpha / (alpha + s)
    if z < 0.5:
        acc = 0.0
        t = z * z * z
        k = 3
        while True:
            term = t / k
            acc += term
            if term < 1e-18 * acc or k > 200:
                return acc
            t *= z
            k += 1
    return math.log1p(alpha / s) - z - 0.5 * z * z


def tail_minus(w: float) -> float:
    # ln(1+w) - w + w^2/2 for w >= 0
    if w < 0.5:
        acc = 0.0
        t = w * w * w
        k = 3
        sgn = 1.0
        while True:
            term = sgn * t / k
            acc += term
            if abs(term) < 1e-18 * abs(acc) or k > 200:
                return acc
            t *= w
            k += 1
            sgn = -sgn
    return math.log1p(w) - w + 0.5 * w * w


def inner_t5(t1: float, t2: float, t4: float, eps: float) -> float:
    """Closed-form integral over s in (0, inf) of ds / (s * g(s)^3), one point
    at a time and at any K (the reference for ``senary.peyre._inner_pair``,
    which runs at K = 1 only, after s = K sigma)."""
    K = t1 if t1 > t2 else t2
    if t4 > K:
        K = t4
    if K < 1.0:
        K = 1.0
    alpha = t1 / t4
    beta = t2
    sq = math.sqrt(alpha * alpha + 4.0 * beta)
    bps = [beta / K]
    if eps > 0:
        if K > alpha:
            bps.append(K - alpha)
        bps.append(2.0 * beta / (alpha + sq))
    else:
        if alpha > K:
            bps.append(alpha - K)
        bps.append(alpha + K)
        bps.append(alpha)
        disc = alpha * alpha - 4.0 * beta
        if disc >= 0.0:
            r2 = 0.5 * (alpha + math.sqrt(disc))
            if r2 > 0.0:
                bps.append(r2)
                bps.append(beta / r2)
        bps.append(0.5 * (alpha + sq))
    bps = sorted(b for b in bps if b > 0.0)
    s_first = bps[0]
    total = s_first**3 / (3.0 * beta**3)  # leading branch g = beta/s
    prev = s_first
    a3 = alpha**3
    for b in bps[1:]:
        if b <= prev:
            continue
        sm = math.sqrt(prev) * math.sqrt(b)
        g_const = K
        g_beta = beta / sm
        g_phi = abs(alpha + eps * sm)
        if g_const >= g_beta and g_const >= g_phi:
            total += math.log1p((b - prev) / prev) / (K * K * K)
        elif g_beta >= g_phi:
            total += (b * b * b - prev * prev * prev) / (3.0 * beta**3)
        elif eps > 0 and alpha < 0.5 * (alpha + prev):
            # z = alpha/(alpha + s) < 1/2 falls from zp to zb: the piece is
            # sum_{k>=3} (zp^k - zb^k)/k, each term d h_{k-1}(zp, zb) / k with
            # h_m = sum_j zp^j zb^(m-j) > 0
            zp, zb = alpha / (alpha + prev), alpha / (alpha + b)
            d = alpha * (b - prev) / ((alpha + prev) * (alpha + b))
            h = zp * zp + zp * zb + zb * zb
            zb_m = zb * zb
            acc = 0.0
            k = 3
            while True:
                term = h / k
                acc += term
                if term < 1e-18 * acc or k > 200:
                    break
                k += 1
                zb_m *= zb
                h = zp * h + zb_m
            total += d * acc / a3
        elif eps > 0:
            ya = prev / (alpha + prev)
            yb = b / (alpha + b)
            d = alpha * (b - prev) / ((alpha + prev) * (alpha + b))
            total += (math.log1p(d / ya) - 2.0 * d + 0.5 * d * (ya + yb)) / a3
        elif b <= alpha:
            ya = prev / (alpha - prev)
            yb = b / (alpha - b)
            d = alpha * (b - prev) / ((alpha - prev) * (alpha - b))
            total += (math.log1p(d / ya) + 2.0 * d + 0.5 * d * (ya + yb)) / a3
        else:
            ya = prev / (prev - alpha)
            yb = b / (b - alpha)
            d = alpha * (b - prev) / ((prev - alpha) * (b - alpha))
            total += (math.log1p(d / yb) - 2.0 * d + 0.5 * d * (ya + yb)) / a3
        prev = b
    if eps > 0:
        total += tail_plus(alpha, prev) / a3
    else:
        total += tail_minus(alpha / (prev - alpha)) / a3
    return total


def outer_level_terms(n, L):
    """The midpoint level's terms t1 t2 (I(+) + I(-)), one per point of the
    n^3 log grid, in plain triple-loop order."""
    h = 2.0 * L / n
    ts = [math.exp(-L + h * (i + 0.5)) for i in range(n)]
    for t1 in ts:
        for t2 in ts:
            w12 = t1 * t2
            for t4 in ts:
                yield w12 * (inner_t5(t1, t2, t4, 1.0) + inner_t5(t1, t2, t4, -1.0))


def outer_level(n, L):
    """The midpoint level as a plain triple loop over the n^3 log grid, its
    terms added one by one."""
    total = 0.0
    for term in outer_level_terms(n, L):
        total += term
    return 8.0 * total * (2.0 * L / n) ** 3


# --- leading constant: per-prime factors and the scalar prefactor ---------


def euler_factors(p):
    """The Euler factors at p as Fractions in q = 1/p: the local density,
    (1 - q^3) times the graph factor, the graph factor, and its product form."""
    q = Fraction(1, p)
    density_factor = (1 - q) ** 5 * (1 + 5 * q + 6 * q**2 + 5 * q**3 + q**4)
    graph_factor = 1 - 9 * q**2 + 16 * q**3 - 9 * q**4 + q**6
    product_form = (1 - q) ** 4 * (1 + 4 * q + q**2)
    return density_factor, (1 - q**3) * graph_factor, graph_factor, product_form


def factor_identity_check(p):
    """The two identities between the Euler factors at p, in exact Fractions
    (the reference for ``senary.peyre.factor_identity_check``)."""
    density_factor, zeta_graph_factor, graph_factor, product_form = euler_factors(p)
    return density_factor == zeta_graph_factor and graph_factor == product_form


def subset_euler_factor(edges, p, s):
    """The graph's Euler factor at p for integer exponents s, one Fraction per
    edge subset U: the sum of (-1)^|U| times the product of p^-s_j over the
    vertices j that U touches (the reference for
    ``senary.graphs.euler_factor_exact``)."""
    x = [Fraction(1, p) ** sj for sj in s]
    total = Fraction(0)
    for k in range(len(edges) + 1):
        for U in itertools.combinations(edges, k):
            touched = {v for e in U for v in e}
            total += (-1) ** k * math.prod((x[v - 1] for v in touched), start=Fraction(1))
    return total


def xi_per_mask(polynomial, s, prime_limit):
    """The Euler product of a graph's factors over p <= prime_limit and its
    tail bound, from ``polynomial`` ({vertex bitmask: coefficient}) with each
    mask's exponent sum added in Python, one bit at a time, and the sums
    merged in a dict (the reference for ``senary.graphs.xi``)."""
    import numpy as np

    from senary.arith import primes_up_to

    merged = {}
    for mask, coeff in polynomial.items():
        expo = sum(s[j] for j in range(len(s)) if mask >> j & 1)
        merged[expo] = merged.get(expo, 0) + coeff
    terms = sorted((e, b) for e, b in merged.items() if e and b)  # e = 0: the empty mask
    primes = primes_up_to(prime_limit)
    product = np.ones(len(primes))
    for e, b in terms:
        product += b * primes ** (-e)
    value = float(np.prod(product))
    L = prime_limit
    a = sum(abs(b) * (L + 1.0) ** (-e) for e, b in terms)
    tail_log = 1.25506 / ((1.0 - a) * math.log(L)) * sum(
        abs(b) * (1.0 + 1.0 / (e - 1.0)) * L ** (1.0 - e) for e, b in terms
    )
    return value, abs(value) * math.expm1(tail_log)


def scalar_prefactor_identity():
    """Both sides of 6*(-5/4 + pi^2/12 + 2 log 2 + 1) = (1/2)(pi^2 + 24 log 2 - 3),
    the archimedean prefactor of the paper's leading constant in two forms."""
    lhs = 6.0 * (-1.25 + math.pi**2 / 12.0 + 2.0 * math.log(2.0) + 1.0)
    rhs = 0.5 * (math.pi**2 + 24.0 * math.log(2.0) - 3.0)
    return lhs, rhs
