"""Numeric constants of the predicted leading coefficient.

Four ingredients are computed here and cross-tied:

* the alpha invariant, an exact rational polytope-slice volume;
* the archimedean density, a 4-dimensional improper integral evaluated by
  orthant decomposition, closed-form integration of the innermost variable,
  and a deterministic midpoint grid in log coordinates for the outer three;
* the p-adic densities, exact rationals checked against brute-force
  finite-field counts;
* the Euler products assembling everything into the leading constants, with
  per-prime algebraic identities verified exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from senary.arith import Rational, primes_up_to
from senary.graphs import SENARY_GRAPH, xi

TWO_PI_LOG_CONSTANT = math.pi**2 + 24.0 * math.log(2.0) - 3.0  # appears as 12*(...) and (1/2)*(...)


class QuadratureNonconvergence(RuntimeError):
    """Raised when the sample budget is exhausted before the tolerance is met;
    carries the best estimate obtained so far."""

    def __init__(self, message: str, best_value: float, error_estimate: float):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate


# ---------------------------------------------------------------------------
# exact polytope volume (Lasserre recursion)


@dataclass(frozen=True)
class HPolytope:
    """H-representation a . z <= b with exact rational data; optional implicit
    z_i >= 0 constraints."""

    dim: int
    inequalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    nonneg: bool = False

    def rows(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        rows = [
            (tuple(Fraction(c) for c in a), Fraction(b)) for a, b in self.inequalities
        ]
        if self.nonneg:
            for i in range(self.dim):
                a = tuple(Fraction(-1) if j == i else Fraction(0) for j in range(self.dim))
                rows.append((a, Fraction(0)))
        return rows

    @classmethod
    def from_ints(cls, dim: int, inequalities, nonneg: bool = False) -> "HPolytope":
        return cls(
            dim,
            tuple((tuple(Fraction(c) for c in a), Fraction(b)) for a, b in inequalities),
            nonneg,
        )


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


def polytope_volume(poly: HPolytope) -> Rational:
    """Exact Euclidean volume by Lasserre's facet recursion over rationals."""
    if poly.dim > 6:
        raise ValueError("dimension capped at 6")
    return _volume_rec(poly.dim, poly.rows())


#: the polytope slice whose volume feeds the alpha invariant
ALPHA_POLYTOPE = HPolytope.from_ints(
    3, [((3, 3, 0), 1), ((3, 0, 3), 1), ((0, 3, 3), 1)], nonneg=True
)


def alpha_invariant() -> Rational:
    """Exact alpha invariant: the weight integral over the z0 direction is the
    degree-3 moment 1/12 (evaluated symbolically), the hyperplane elimination
    contributes 1/3, and the remaining factor is the polytope volume."""
    z0_moment = Fraction(1, 12)
    elimination = Fraction(1, 3)
    return z0_moment * elimination * polytope_volume(ALPHA_POLYTOPE)


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
#     K = max(t1, t2, t4, 1), alpha = t1/t4, beta = t2,
# a piecewise combination of three explicitly integrable branches.  The
# breakpoints are the pairwise crossings of the branches; every piece is
# integrated in closed form (the |alpha + eps*s| branch through the stable
# substitution y = s / (alpha +- s)).
#
# The remaining three variables are compactified by t -> log t (equivalently:
# inversion t -> 1/t onto the unit cube plus a logarithmic capture of the
# integrable 1/t singularity) and integrated on a deterministic midpoint grid
# over [-L, L]^3, with a two-level Richardson step and a heuristic error
# estimate from the level difference.


def _tail_plus(alpha: float, s: float) -> float:
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


def _tail_minus(w: float) -> float:
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


def _inner_t5(t1: float, t2: float, t4: float, eps: float) -> float:
    """Closed-form integral over s in (0, inf) of ds / (s * g(s)^3)."""
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
            total += math.log(b / prev) / (K * K * K)
        elif g_beta >= g_phi:
            total += (b * b * b - prev * prev * prev) / (3.0 * beta**3)
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
        total += _tail_plus(alpha, prev) / a3
    else:
        total += _tail_minus(alpha / (prev - alpha)) / a3
    return total


def _inner_t5_unit_cell(t1: float, t2: float, t4: float, eps: float) -> float:
    """Same inner integral restricted to the cell where the max equals 1:
    requires t1, t2, t4 <= 1 (checked by the caller), t5 <= 1 and coupling
    |alpha + eps*s| <= 1; the integrand there is ds/s over an interval."""
    alpha = t1 / t4
    beta = t2  # s = beta/t5 >= beta on t5 <= 1
    if eps > 0:
        hi = 1.0 - alpha
        if hi <= beta:
            return 0.0
        return math.log(hi / beta)
    lo = max(alpha - 1.0, beta)
    hi = alpha + 1.0
    if hi <= lo:
        return 0.0
    return math.log(hi / lo)


@lru_cache(maxsize=64)
def _outer_level(n: int, L: float) -> float:
    h = 2.0 * L / n
    ts = [math.exp(-L + h * (i + 0.5)) for i in range(n)]
    total = 0.0
    for t1 in ts:
        for t2 in ts:
            w12 = t1 * t2
            for t4 in ts:
                total += w12 * (_inner_t5(t1, t2, t4, 1.0) + _inner_t5(t1, t2, t4, -1.0))
    return 8.0 * total * h**3


@lru_cache(maxsize=64)
def _outer_level_unit_cell(n: int, L: float) -> float:
    # outer variables restricted to (0, 1]: grid over [-L, 0]^3
    h = L / n
    ts = [math.exp(-L + h * (i + 0.5)) for i in range(n)]
    total = 0.0
    for t1 in ts:
        for t2 in ts:
            w12 = t1 * t2
            for t4 in ts:
                total += w12 * (
                    _inner_t5_unit_cell(t1, t2, t4, 1.0) + _inner_t5_unit_cell(t1, t2, t4, -1.0)
                )
    return 8.0 * total * h**3


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


def archimedean_density(
    tolerance: float = 0.01, budget: int = 60_000_000, region: str = "full"
) -> ConstantReport:
    """Archimedean density by deterministic quadrature.

    ``tolerance`` is the requested relative accuracy (heuristic two-level
    estimate, reported in the result); ``budget`` caps the total number of
    outer grid points.  ``region='unit-cell'`` restricts to the cell where the
    max in the denominator equals 1 (used by consistency tests).
    """
    if not (math.isfinite(tolerance) and tolerance >= 1e-3):
        raise ValueError(f"tolerance must be finite and >= 1e-3 (fixed schedule), got {tolerance}")
    level = _outer_level if region == "full" else _outer_level_unit_cell
    if region not in ("full", "unit-cell"):
        raise ValueError("region must be 'full' or 'unit-cell'")
    spent = 0
    best = None
    best_err = math.inf
    for n_lo, n_hi in _QUAD_SCHEDULE:
        cost = 2 * (n_lo**3 + n_hi**3)
        if spent + cost > budget:
            break
        spent += cost
        coarse = level(n_lo, _QUAD_L)
        fine = level(n_hi, _QUAD_L)
        value = (4.0 * fine - coarse) / 3.0  # Richardson for the h^2 term
        err = _QUAD_SAFETY * abs(fine - coarse) / 3.0 + _QUAD_DOMAIN_MARGIN
        if err < best_err:
            best, best_err = value, err
        if best_err <= tolerance * abs(best):
            return ConstantReport(
                name="mu_infinity" if region == "full" else "mu_infinity_unit_cell",
                value=best,
                exact=None,
                tolerance=best_err,
                provenance={
                    "method": "orthant split + closed-form inner integral + log-grid midpoint",
                    "levels": [n_lo, n_hi],
                    "log_box_halfwidth": _QUAD_L,
                    "samples": spent,
                    "error_estimate": "two-level Richardson difference (heuristic)",
                },
            )
    raise QuadratureNonconvergence(
        f"budget {budget} exhausted before reaching relative tolerance {tolerance}",
        best if best is not None else math.nan,
        best_err,
    )


# ---------------------------------------------------------------------------
# p-adic densities and per-prime identities


def local_density(p: int) -> Rational:
    """Exact p-adic mass of the descent scheme: (p-1)^5 (p^2+p+1) (p^2+4p+1) / p^9."""
    if p < 2:
        raise ValueError("p must be a prime")
    return Fraction((p - 1) ** 5 * (p * p + p + 1) * (p * p + 4 * p + 1), p**9)


def factor_identity_check(p: int) -> bool:
    """Exact rational identities wiring the three Euler factors together:

    (1-1/p)^5 (1+5/p+6/p^2+5/p^3+1/p^4) = (1-1/p^3)(1-9/p^2+16/p^3-9/p^4+1/p^6)
    and (1-9/p^2+16/p^3-9/p^4+1/p^6) = (1-1/p)^4 (1+4/p+1/p^2).
    """
    q = Fraction(1, p)
    density_factor = (1 - q) ** 5 * (1 + 5 * q + 6 * q**2 + 5 * q**3 + q**4)
    graph_factor = 1 - 9 * q**2 + 16 * q**3 - 9 * q**4 + q**6
    first = density_factor == (1 - q**3) * graph_factor
    second = graph_factor == (1 - q) ** 4 * (1 + 4 * q + q**2)
    return first and second


def _euler_product_local(prime_limit: int) -> tuple[float, float]:
    """prod over p <= limit of the local-density factor, with tail bound.

    |factor - 1| <= 21/p^2 for p >= 2, so the omitted log-mass is at most
    sum_{p > L} 42/p^2 <= 42/L.
    """
    primes = np.array(primes_up_to(prime_limit).primes, dtype=np.float64)
    q = 1.0 / primes
    factors = (1 - q) ** 5 * (1 + 5 * q + 6 * q**2 + 5 * q**3 + q**4)
    value = float(np.prod(factors))
    tail = value * math.expm1(42.0 / prime_limit)
    return value, tail


def peyre_theta(prime_limit: int = 100_000, quad_tolerance: float = 0.01) -> ConstantReport:
    """Leading constant of the rational-point count, assembled from parts
    (alpha x numeric archimedean density x exact local densities) and compared
    against the closed form (1/324)(pi^2 + 24 log 2 - 3) x Euler product.

    Raises if the two paths disagree beyond the combined error budget.
    """
    if prime_limit < 1000:
        raise ValueError("prime_limit must be at least 1000")
    alpha = alpha_invariant()
    mu = archimedean_density(quad_tolerance)
    product, product_tail = _euler_product_local(prime_limit)
    assembled = float(alpha) * mu.value * product
    closed = (TWO_PI_LOG_CONSTANT / 324.0) * product
    combined = float(alpha) * mu.tolerance * product + (closed / product) * product_tail
    if abs(assembled - closed) > combined:
        raise RuntimeError(
            f"theta paths disagree beyond tolerance: {assembled} vs {closed} (allow {combined})"
        )
    return ConstantReport(
        name="theta",
        value=closed,
        exact=None,
        tolerance=combined + product_tail,
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
    (1/2)(pi^2 + 24 log 2 - 3) times the graph Euler product at s = 1."""
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


def scalar_prefactor_identity() -> tuple[float, float]:
    """Both sides of 6*(-5/4 + pi^2/12 + 2 log 2 + 1) = (1/2)(pi^2 + 24 log 2 - 3)."""
    lhs = 6.0 * (-1.25 + math.pi**2 / 12.0 + 2.0 * math.log(2.0) + 1.0)
    rhs = 0.5 * TWO_PI_LOG_CONSTANT
    return lhs, rhs


def consistency_V_to_N(prime_limit: int = 100_000) -> tuple[bool, float]:
    """Check that (1/162) zeta(3)^-1 x leading_V equals the closed-form theta,
    with zeta(3) truncated over the same primes so the per-prime identity is
    exact; returns (ok, relative residual)."""
    primes = np.array(primes_up_to(prime_limit).primes, dtype=np.float64)
    zeta3_inv = float(np.prod(1.0 - primes**-3))
    lead_v = leading_coeff_V(prime_limit)
    lhs = lead_v.value * zeta3_inv / 162.0
    product, _ = _euler_product_local(prime_limit)
    rhs = (TWO_PI_LOG_CONSTANT / 324.0) * product
    residual = abs(lhs - rhs) / abs(rhs)
    return residual < 1e-10, residual
