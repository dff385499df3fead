"""Brute-force reference enumerations, independent of the package internals.

Everything here iterates plain Python integers over full boxes with no
symmetry tricks, so it stays trustworthy (and slow); use only for tiny bounds.
"""

import itertools
import math


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


def exhaustive_degenerate_pairs(P):
    count = 0
    rng = range(-P, P + 1)
    for t in itertools.product(rng, repeat=6):
        if t[3] * t[4] * t[5] != 0:
            continue
        if all(v == 0 for v in t):
            continue
        if cubic(*t) == 0 and math.gcd(*t) == 1:
            count += 1
    assert count % 2 == 0
    return count // 2


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
