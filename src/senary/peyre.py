"""Numeric constants of the predicted leading coefficient.

Three ingredients are computed here and cross-tied:

* the alpha invariant, an exact rational polytope-slice volume;
* the archimedean density, a 4-dimensional improper integral evaluated by
  orthant decomposition, closed-form integration of the innermost variable,
  and a deterministic midpoint grid in log coordinates for the outer three;
* the Euler products of the local factors, both read off ``graphs.xi`` (the
  local density's is xi over zeta(3)), assembling everything into the
  leading constants, with per-prime algebraic identities verified exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from senary.arith import Rational
from senary.graphs import SENARY_GRAPH, _zeta, xi

TWO_PI_LOG_CONSTANT = math.pi**2 + 24.0 * math.log(2.0) - 3.0  # appears as 12*(...) and (1/2)*(...)


class QuadratureNonconvergence(RuntimeError):
    """Raised when the level schedule runs out before the tolerance is met;
    carries the name the constant's report would have had and the best
    estimate obtained so far."""

    def __init__(self, message: str, name: str, best_value: float, error_estimate: float):
        super().__init__(message)
        self.name = name
        self.best_value = best_value
        self.error_estimate = error_estimate


# ---------------------------------------------------------------------------
# exact polytope volume (Lasserre recursion)


class UnboundedPolytopeError(ValueError):
    pass


def _volume_rec(d: int, rows) -> Fraction:
    # drop trivial rows; detect infeasibility
    live = []
    for a, b in rows:
        if all(c == 0 for c in a):
            if b < 0:
                return Fraction(0)
        else:
            live.append((a, b))
    if d == 0:
        return Fraction(1)
    if not live:
        raise UnboundedPolytopeError("no constraints left in dimension >= 1")
    if d == 1:
        lo, hi = None, None
        for (a,), b in live:
            bound = Fraction(b, a)
            if a > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is None or hi is None:
            raise UnboundedPolytopeError("1-dimensional section is unbounded")
        return max(Fraction(0), hi - lo)
    total = Fraction(0)
    for i, (a, b) in enumerate(live):
        t = max(range(d), key=lambda j: abs(a[j]))
        pivot = a[t]
        projected = []
        for k, (ak, bk) in enumerate(live):
            if k == i:
                continue
            factor = Fraction(ak[t], pivot)
            new_a = tuple(ak[j] - factor * a[j] for j in range(d) if j != t)
            new_b = bk - factor * b
            projected.append((new_a, new_b))
        face = _volume_rec(d - 1, projected)
        if face:
            total += Fraction(b, abs(pivot)) * face
    return total / d


def polytope_volume(dim: int, inequalities) -> Rational:
    """Exact Euclidean volume of the polytope a . z <= b over the integer or
    rational rows (a, b) in ``inequalities``, by Lasserre's facet recursion
    over the rationals."""
    if dim > 6:
        raise ValueError("dimension capped at 6")
    return _volume_rec(dim, inequalities)


#: the polytope slice whose volume feeds the alpha invariant: three rows and
#: z_i >= 0
ALPHA_POLYTOPE = (
    ((3, 3, 0), 1),
    ((3, 0, 3), 1),
    ((0, 3, 3), 1),
    ((-1, 0, 0), 0),
    ((0, -1, 0), 0),
    ((0, 0, -1), 0),
)


def alpha_invariant() -> Rational:
    """Exact alpha invariant: the weight integral over the z0 direction is the
    degree-3 moment 1/12 (evaluated symbolically), the hyperplane elimination
    contributes 1/3, and the remaining factor is the polytope volume."""
    z0_moment = Fraction(1, 12)
    elimination = Fraction(1, 3)
    return z0_moment * elimination * polytope_volume(3, ALPHA_POLYTOPE)


# ---------------------------------------------------------------------------
# archimedean density
#
# The density is
#     mu = int dt1 dt2 dt4 dt5 / (|t4 t5| * M^3),
#     M  = max(|t1|, |t2|, |t1/t4 + t2/t5|, |t4|, |t5|, 1)
# over R^4.  Splitting into orthants leaves two distinct positive-orthant
# integrals distinguished by the coupling sign eps = sign(t1 t2 t4 t5); eight
# orthants each reduce to either one, so mu = 8 * (I(+) + I(-)).
#
# Within the positive orthant the t5 integral is elementary: substituting
# s = t2/t5 it becomes int ds / (s * g(s)^3) with
#     g(s) = max(K, beta/s, |alpha + eps*s|),
#     K = max(t1, t2, t4, 1), alpha = t1/t4, beta = t2.
# Substituting s = K sigma makes it K^-3 times the same integral at K = 1 and
# (alpha/K, beta/K^2), where beta/K^2 <= 1; ``_level_pairs`` does this, so the
# kernel ``_inner_pair`` runs at K = 1 only, entrywise over arrays and both
# couplings at once.  There g(s) = max(1, beta/s, |alpha + eps*s|) is a
# piecewise combination of three explicitly integrable branches.  The
# breakpoints are the pairwise crossings of the branches; every piece is
# integrated in closed form (the |alpha + eps*s| branch through the stable
# substitution y = s / (alpha +- s)).  Each coupling's breakpoints are a list
# of arrays, an absent crossing repeating a present one (an empty piece),
# sorted entrywise by a network of np.minimum/np.maximum.  The pieces are
# summed in order, each with the branch largest at its geometric midpoint,
# then the tail past the last breakpoint, by Horner where it is a short series.
# For eps = -1 the two largest, h = (alpha + sqrt(alpha^2 + 4 beta))/2 and
# alpha + 1, need no sort: h >= alpha >= r2 >= beta/r2, alpha - 1;
# h >= sqrt(beta) >= beta; and h <= alpha + 1 as beta <= 1.
#
# The remaining three variables are compactified by t -> log t (equivalently:
# inversion t -> 1/t onto the unit cube plus a logarithmic capture of the
# integrable 1/t singularity) and integrated on a deterministic midpoint grid
# over [-L, L]^3, with a two-level Richardson step and a heuristic error
# estimate from the level difference.
#
# A level needs far fewer inner integrals than grid points.  On the level-n
# grid log t = c h/2 for odd c in 1-n..n-1 (h = 2L/n), and with
# k = max(c1, c2, c4, 0), log a = (c1 - c4 - k) h/2 and log b = (c2 - 2k) h/2:
# both on the h/2 lattice.  So for even n the n^3 points share only
# 13 n^2/4 - 7 n/2 + 1 distinct pairs (a, b): 777 at n = 16, 52,801 at
# n = 128 (2,097,152 points).  ``_level_pairs`` sums each pair's weight
# t1 t2 / K^3 over its points, a t1 slice at a time in an O(n^2) table, and
# ``_outer_level`` runs the kernel once per pair.


def _atanh_excess(u: np.ndarray) -> np.ndarray:
    """2 (atanh(u) - u) = 2 u^3 sum_{j>=0} u^(2j)/(2j+3) for |u| <= 1/3: as
    u^2 <= 1/9, Horner over j = 0..17 leaves out under 1e-18 of it."""
    v = u * u
    acc = np.full_like(u, 1.0 / 37.0)
    for j in range(16, -1, -1):
        acc *= v
        acc += 1.0 / (2 * j + 3)
    return 2.0 * (u * v) * acc


def _log_series(z: np.ndarray) -> np.ndarray:
    """sum_{k>=3} z^k/k = -ln(1-z) - z - z^2/2 for |z| <= 1/2: with u = z/(2-z),
    -ln(1-z) = 2 atanh(u) makes it z^3/(2(2-z)) + 2 (atanh(u) - u)."""
    d = 2.0 - z
    return (z * z * z) / (2.0 * d) + _atanh_excess(z / d)


def _tail_plus(alpha: np.ndarray, s: np.ndarray) -> np.ndarray:
    # sum_{k>=3} z^k/k at z = alpha/(alpha+s); equals -ln(1-z) - z - z^2/2
    z = alpha / (alpha + s)
    out = np.log1p(alpha / s) - z - 0.5 * z * z
    short = np.nonzero(z < 0.5)[0]
    out[short] = _log_series(z[short])
    return out


def _tail_minus(w: np.ndarray) -> np.ndarray:
    # ln(1+w) - w + w^2/2 for w >= 0, i.e. minus the series at z = -w
    out = np.log1p(w) - w + 0.5 * w * w
    short = np.nonzero(w < 0.5)[0]
    out[short] = -_log_series(-w[short])
    return out


def _phi_piece(prev: np.ndarray, b: np.ndarray, alpha: np.ndarray, eps: float) -> np.ndarray:
    """alpha^3 * int_prev^b ds / (s (alpha + eps*s)^3), through the stable
    substitution y = s / (alpha + eps*s), for b <= alpha when eps < 0: past
    alpha every breakpoint is at most alpha + 1, so s - alpha <= 1 up to there
    and the coupling branch is never the largest."""
    c = alpha + eps * prev
    e = alpha + eps * b
    ya = prev / c
    yb = b / e
    d = alpha * (b - prev) / (c * e)
    out = np.log1p(d / ya) - 2.0 * eps * d + 0.5 * d * (ya + yb)
    if eps > 0:
        # the piece is sum_{k>=3} (zp^k - zb^k)/k for z = alpha/(alpha + s),
        # falling from zp = 1 - ya to zb = zp - d.  Below zp = 1/2 the terms
        # above cancel to about d zp^2, so it is taken as the positive
        # 2 (atanh(w) - w) + d m^2/(1 - m), m = (zp + zb)/2, w = d/(2 - 2m)
        i = np.nonzero(alpha < 0.5 * c)[0]
        m = 0.5 * (alpha[i] / c[i] + alpha[i] / e[i])
        two_rest = ya[i] + yb[i]  # 2 - 2m
        out[i] = _atanh_excess(d[i] / two_rest) + 2.0 * d[i] * m * m / two_rest
    return out


def _sorted_rows(rows: list) -> list:
    """``rows`` sorted entrywise, smallest first, by odd-even transposition."""
    for rank in range(len(rows)):
        for i in range(rank % 2, len(rows) - 1, 2):
            rows[i : i + 2] = np.minimum(*rows[i : i + 2]), np.maximum(*rows[i : i + 2])
    return rows


def _pieces(bps: list, eps: float, alpha, beta, a3, beta3x3) -> np.ndarray:
    """The integral over s up to the last of the sorted breakpoints ``bps``."""
    roots = [np.sqrt(b) for b in bps]
    total = bps[0] ** 3 / beta3x3  # leading branch g = beta/s
    for j in range(1, len(bps)):
        prev, b = bps[j - 1], bps[j]
        # on [prev, b] g is the branch largest at the geometric midpoint; an
        # empty piece (b = prev) takes the branch g = 1, which gives 0
        sm = roots[j - 1] * roots[j]
        g_beta = beta / sm
        g_phi = np.abs(alpha + eps * sm)
        # not log(b/prev): rounding b/prev costs 1e-16 / (b/prev - 1) relative
        piece = np.log1p((b - prev) / prev)
        off = np.nonzero((1.0 < np.maximum(g_beta, g_phi)) & (b > prev))[0]
        on_beta = g_beta[off] >= g_phi[off]
        i = off[on_beta]  # g = beta/s
        lo, hi = prev[i], b[i]
        piece[i] = (hi * hi * hi - lo * lo * lo) / beta3x3[i]
        i = off[~on_beta]  # g = |alpha + eps*s|
        piece[i] = _phi_piece(prev[i], b[i], alpha[i], eps) / a3[i]
        total += piece
    return total


def _inner_pair(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form integrals over s in (0, inf) of ds / (s * g(s)^3) for eps = +1
    and -1, entrywise over float64 arrays alpha > 0 and 0 < beta <= 1, with
    g(s) = max(1, beta/s, |alpha + eps*s|): the inner integral at K = 1."""
    sq = np.sqrt(alpha * alpha + 4.0 * beta)
    a3 = alpha**3
    shared = (alpha, beta, a3, 3.0 * beta**3)
    plus = _sorted_rows([beta, np.where(1.0 > alpha, 1.0 - alpha, beta), 2.0 * beta / (alpha + sq)])
    disc = alpha * alpha - 4.0 * beta
    real = disc >= 0.0
    r2 = np.where(real, 0.5 * (alpha + np.sqrt(np.maximum(disc, 0.0))), alpha)
    minus = _sorted_rows([beta, np.where(alpha > 1.0, alpha - 1.0, alpha), alpha, r2,
                          np.where(real, beta / r2, alpha)])
    minus += [0.5 * (alpha + sq), alpha + 1.0]
    return (
        _pieces(plus, 1.0, *shared) + _tail_plus(alpha, plus[-1]) / a3,
        _pieces(minus, -1.0, *shared) + _tail_minus(alpha / (minus[-1] - alpha)) / a3,
    )


_PAIR_CHUNK = 4096  # kernel entries per array call: keeps a level's memory flat


@lru_cache(maxsize=8)
def _level_pairs(n: int, L: float) -> tuple[np.ndarray, ...]:
    """The distinct pairs (a, b) = (alpha/K, beta/K^2) of the level-n grid
    over [-L, L]^3, the kernel's (alpha, beta) at K = 1, with the weight
    t1 t2 / K^3 of every grid point summed per pair: (alpha, beta, weight).

    Logs are integers in units of h/2, as the section comment derives; a t1
    slice at a time, the weights go into a table keyed by log a and log b,
    which holds (4n - 3)(3n - 2) entries.  Cached apart from ``_outer_level``
    so that ``archimedean_density`` can count a level's pairs."""
    h = 2.0 * L / n
    c = np.arange(1 - n, n, 2)
    low = 5 * (1 - n)  # the least log t1 t2 / K^3: c1 = c2 = 1 - n, k = c4 = n - 1
    powers = np.exp(0.5 * h * np.arange(low, n))  # powers[m - low] = exp(m h/2)
    a_low = b_low = 3 * (1 - n)  # log a runs over a_low..n-1, log b over b_low..0
    b_size = 1 - b_low
    table = np.zeros((n - a_low) * b_size)
    c2, c4 = np.repeat(c, n), np.tile(c, n)
    for c1 in c.tolist():
        k = np.maximum(np.maximum(c2, c4), max(c1, 0))  # log K
        keys = (c1 - c4 - k - a_low) * b_size + (c2 - 2 * k - b_low)
        np.add.at(table, keys, powers[c1 + c2 - 3 * k - low])
    keys = np.flatnonzero(table)  # every weight is positive
    log_a = keys // b_size + a_low
    log_b = keys % b_size + b_low
    # alpha = t1/t4 at t1 = min(a, 1) and t4 = min(1/a, 1), one of them exp(0) = 1
    pairs = (powers[np.minimum(log_a, 0) - low] / powers[np.minimum(-log_a, 0) - low],
             powers[log_b - low], table[keys])
    for array in pairs:  # shared by every caller through the cache
        array.flags.writeable = False
    return pairs


@lru_cache(maxsize=64)
def _outer_level(n: int, L: float) -> float:
    """One midpoint level on the n^3 grid in log coordinates over [-L, L]^3.
    The Jacobian dt = t du weights each point by t1 t2 (t4 cancels the
    density's 1/t4), and s = K sigma turns the inner integral into K^-3 times
    the one at (alpha/K, beta/K^2) and K = 1, the only K the kernel runs at:
    once per distinct pair of ``_level_pairs``, both eps at once, a chunk at
    a time.  The terms weight x (plus + minus) go to ``math.fsum``: the level
    is their exactly rounded sum, whatever their order."""
    alpha, beta, weight = _level_pairs(n, L)

    def terms():
        for lo in range(0, len(weight), _PAIR_CHUNK):
            part = slice(lo, lo + _PAIR_CHUNK)
            plus, minus = _inner_pair(alpha[part], beta[part])
            yield from (weight[part] * (plus + minus)).tolist()

    return 8.0 * math.fsum(terms()) * (2.0 * L / n) ** 3


@dataclass
class ConstantReport:
    name: str
    value: float
    exact: Rational | None
    tolerance: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.exact is not None and abs(self.value - float(self.exact)) > self.tolerance:
            raise ValueError(f"{self.name}: value outside stated tolerance of exact result")

    def to_json(self) -> str:
        obj = {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "provenance": self.provenance,
        }
        if self.exact is not None:
            obj["exact"] = f"{self.exact.numerator}/{self.exact.denominator}"
        return json.dumps(obj, sort_keys=True)


_QUAD_SCHEDULE = ((16, 32), (32, 64), (64, 128), (96, 192), (128, 256))
_QUAD_SAFETY = 1.25
_QUAD_DOMAIN_MARGIN = 0.05  # allowance for the [-L, L] truncation
_QUAD_L = 18.0


def archimedean_density(tolerance: float = 0.01) -> ConstantReport:
    """Archimedean density by deterministic quadrature.

    ``tolerance`` is the requested relative accuracy (heuristic two-level
    estimate, reported in the result).  The level pairs of ``_QUAD_SCHEDULE``
    run in turn until one meets it; the provenance names that pair and counts,
    over every level evaluated, each once, the grid points and the kernel's
    evaluations (one per distinct pair of ``_level_pairs``).
    """
    if not (math.isfinite(tolerance) and tolerance >= 1e-3):
        raise ValueError(f"tolerance must be finite and >= 1e-3 (fixed schedule), got {tolerance}")
    evaluated = set()
    best_err = math.inf
    for n_lo, n_hi in _QUAD_SCHEDULE:
        evaluated.update((n_lo, n_hi))
        coarse = _outer_level(n_lo, _QUAD_L)
        fine = _outer_level(n_hi, _QUAD_L)
        value = (4.0 * fine - coarse) / 3.0  # Richardson for the h^2 term
        err = _QUAD_SAFETY * abs(fine - coarse) / 3.0 + _QUAD_DOMAIN_MARGIN
        if err < best_err:
            best, best_err = value, err
        if best_err <= tolerance * abs(best):
            return ConstantReport(
                name="mu_infinity",
                value=best,
                exact=None,
                tolerance=best_err,
                provenance={
                    "method": "orthant split + closed-form inner integral + log-grid midpoint",
                    "levels": [n_lo, n_hi],
                    "log_box_halfwidth": _QUAD_L,
                    "samples": 2 * sum(n**3 for n in evaluated),  # both values of eps
                    # the distinct pairs the kernel ran on, both eps in one call
                    "evaluations": sum(len(_level_pairs(n, _QUAD_L)[2]) for n in evaluated),
                    "error_estimate": "two-level Richardson difference (heuristic)",
                },
            )
    raise QuadratureNonconvergence(
        f"level schedule ended before reaching relative tolerance {tolerance}", "mu_infinity", best, best_err
    )


# ---------------------------------------------------------------------------
# per-prime identities and Euler products


def _euler_factor_polynomials(p: int) -> tuple[int, int, int, int]:
    """Both sides of the two identities of ``factor_identity_check``, times p^9
    and times p^6."""
    graph = p**6 - 9 * p**4 + 16 * p**3 - 9 * p**2 + 1
    density = (p - 1) ** 5 * (p**4 + 5 * p**3 + 6 * p**2 + 5 * p + 1)
    return density, (p**3 - 1) * graph, graph, (p - 1) ** 4 * (p * p + 4 * p + 1)


def factor_identity_check(p: int) -> bool:
    """Exact identities wiring the three Euler factors together:

    (1-1/p)^5 (1+5/p+6/p^2+5/p^3+1/p^4) = (1-1/p^3)(1-9/p^2+16/p^3-9/p^4+1/p^6)
    and (1-9/p^2+16/p^3-9/p^4+1/p^6) = (1-1/p)^4 (1+4/p+1/p^2),
    checked over the integers after multiplying through by p^9 and p^6.
    """
    density, zeta_graph, graph, product = _euler_factor_polynomials(p)
    return density == zeta_graph and graph == product


def _euler_product_local(prime_limit: int) -> tuple[float, float]:
    """The product over all primes of the local-density factor, with an
    absolute error bound.  The factor is (1 - 1/p^3) times the senary graph's
    factor at s = 1 (the first identity of ``factor_identity_check``), so the
    product is xi(senary, 1) / zeta(3): xi truncated at ``prime_limit``,
    zeta(3) whole, and the bound xi's tail bound over zeta(3)."""
    xi_val, xi_tail = xi(SENARY_GRAPH, (1.0,) * 6, prime_limit)
    return xi_val / _zeta(3.0), xi_tail / _zeta(3.0)


def peyre_theta(prime_limit: int = 100_000, quad_tolerance: float = 0.01) -> ConstantReport:
    """Leading constant of the rational-point count, assembled from parts
    (alpha x numeric archimedean density x exact local densities) and compared
    against the closed form (1/324)(pi^2 + 24 log 2 - 3) x Euler product.

    theta predicts N(B) of ``cubic.count_N``: the +/- pairs of primitive
    sextuples with y1*y2*y3 != 0 of height at most B, the box of radius
    R = floor(B^(1/3)), so B = R^3.  theta is the coefficient of B (log B)^4
    in N(B).  Since 2N(R^3) is about V(R) / zeta(3) and (log B)^4 is
    81 (log R)^4, ``leading_coeff_V`` is 162 zeta(3) theta.

    Raises if the two paths disagree beyond their combined error bound, which
    is also the reported tolerance: the quadrature's share plus theta's share
    of the Euler tail, (closed / product) times the product's tail.  A
    quadrature that does not converge raises QuadratureNonconvergence on
    theta's scale: the assembled best estimate, with the same error bound.
    """
    if prime_limit < 1000:
        raise ValueError(f"prime limit must be >= 1000, got {prime_limit}")
    # the sieve refuses a prime limit above its cap before any quadrature
    product, product_tail = _euler_product_local(prime_limit)
    alpha = float(alpha_invariant())
    closed = (TWO_PI_LOG_CONSTANT / 324.0) * product
    tail = (closed / product) * product_tail
    try:
        mu = archimedean_density(quad_tolerance)
    except QuadratureNonconvergence as exc:
        best, err = alpha * exc.best_value * product, alpha * exc.error_estimate * product + tail
        raise QuadratureNonconvergence(str(exc), "theta", best, err) from exc
    assembled = alpha * mu.value * product
    combined = alpha * mu.tolerance * product + tail
    if abs(assembled - closed) > combined:
        raise RuntimeError(
            f"theta paths disagree beyond tolerance: {assembled} vs {closed} (allow {combined})"
        )
    return ConstantReport(
        name="theta",
        value=closed,
        exact=None,
        tolerance=combined,
        provenance={
            "assembled": assembled,
            "closed_form": closed,
            "prime_limit": prime_limit,
            "euler_tail": product_tail,
            "quadrature_tolerance": mu.tolerance,
        },
    )


def leading_coeff_V(prime_limit: int = 100_000) -> ConstantReport:
    """Leading coefficient of the box-count asymptotics:
    (1/2)(pi^2 + 24 log 2 - 3) times the graph Euler product at s = 1.

    It predicts V(P) of ``cubic.naive_count_V``, all sextuples of the box
    [-P, P]^6 with y1*y2*y3 != 0, both signs and not only primitive ones:
    leading_V is the coefficient of P^3 (log P)^4 in V(P).  In the height
    B = P^3 the coefficient of B (log B)^4 is leading_V / 81 = 2 zeta(3)
    theta, since (log B)^4 = 81 (log P)^4; see ``peyre_theta``."""
    ones = (1.0,) * 6
    xi_val, xi_tail = xi(SENARY_GRAPH, ones, prime_limit)
    value = 0.5 * TWO_PI_LOG_CONSTANT * xi_val
    return ConstantReport(
        name="leading_V",
        value=value,
        exact=None,
        tolerance=0.5 * TWO_PI_LOG_CONSTANT * xi_tail,
        provenance={"prime_limit": prime_limit, "xi": xi_val, "xi_tail": xi_tail},
    )
