import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from senary import peyre
from senary.arith import primes_up_to
from senary.graphs import SENARY_GRAPH, _zeta, xi
from senary.peyre import (
    ALPHA_POLYTOPE,
    TWO_PI_LOG_CONSTANT,
    ConstantReport,
    HPolytope,
    QuadratureNonconvergence,
    UnboundedPolytopeError,
    _euler_factor_polynomials,
    _euler_product_local,
    _inner_pair,
    _level_pairs,
    _outer_level,
    _tail_minus,
    _tail_plus,
    alpha_invariant,
    archimedean_density,
    factor_identity_check,
    leading_coeff_V,
    peyre_theta,
    polytope_volume,
)
from senary.torsor import count_O_Fp

MU_TARGET = 12.0 * TWO_PI_LOG_CONSTANT  # = 12 (pi^2 + 24 log 2 - 3)


# --- exact polytope volumes ---------------------------------------------------


def test_unit_cube_volume():
    cube = HPolytope.from_ints(3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)], nonneg=True)
    assert polytope_volume(cube) == 1


def test_simplex_volume():
    simplex = HPolytope.from_ints(3, [((1, 1, 1), 1)], nonneg=True)
    assert polytope_volume(simplex) == Fraction(1, 6)


def test_alpha_polytope_volume():
    assert polytope_volume(ALPHA_POLYTOPE) == Fraction(1, 108)


def test_volume_invariant_under_coordinate_permutation():
    permuted = HPolytope.from_ints(
        3, [((3, 0, 3), 1), ((3, 3, 0), 1), ((0, 3, 3), 1)], nonneg=True
    )
    swapped = HPolytope.from_ints(
        3, [((0, 3, 3), 1), ((3, 0, 3), 1), ((3, 3, 0), 1)], nonneg=True
    )
    assert polytope_volume(permuted) == polytope_volume(swapped) == Fraction(1, 108)


def test_shifted_cube_with_negative_offsets():
    cube = HPolytope.from_ints(
        2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1)]
    )
    assert polytope_volume(cube) == 4


def test_empty_polytope_has_zero_volume():
    empty = HPolytope.from_ints(2, [((1, 0), -1)], nonneg=True)
    assert polytope_volume(empty) == 0


def test_unbounded_polytope_raises():
    with pytest.raises(UnboundedPolytopeError):
        polytope_volume(HPolytope.from_ints(2, [((1, 0), 1)], nonneg=True))
    with pytest.raises(UnboundedPolytopeError):
        polytope_volume(HPolytope.from_ints(2, [((1, 1), 1)]))


@given(
    st.lists(
        st.tuples(st.integers(-5, 4), st.integers(1, 6)),
        min_size=2,
        max_size=4,
    )
)
def test_axis_aligned_box_volumes(gaps):
    # box prod [lo_i, lo_i + len_i]: volume is the product of the edge lengths
    d = len(gaps)
    rows = []
    expected = Fraction(1)
    for i, (lo, length) in enumerate(gaps):
        e = [0] * d
        e[i] = 1
        rows.append((tuple(e), lo + length))
        rows.append((tuple(-v for v in e), -lo))
        expected *= length
    assert polytope_volume(HPolytope.from_ints(d, rows)) == expected


def test_degenerate_flat_polytope_has_zero_volume():
    flat = HPolytope.from_ints(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 3), ((0, -1), 0)])
    assert polytope_volume(flat) == 0


def test_alpha_invariant_exact():
    assert alpha_invariant() == Fraction(1, 3888)
    # pipeline: degree-3 moment 1/12, hyperplane elimination 1/3, volume 1/108
    assert Fraction(1, 12) * Fraction(1, 3) * Fraction(1, 108) == Fraction(1, 3888)


# --- local densities -----------------------------------------------------------


def _local_density(p):
    """The p-adic mass of the descent scheme, (p-1)^5 (p^2+p+1) (p^2+4p+1) / p^9,
    whose numerator ``verify fp-counts`` compares with the F_p point count."""
    return Fraction((p - 1) ** 5 * (p * p + p + 1) * (p * p + 4 * p + 1), p**9)


def test_local_density_examples():
    assert _local_density(2) == Fraction(91, 512)
    assert _local_density(3) == Fraction(9152, 19683)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_local_density_matches_finite_field_count(p):
    mass = _local_density(p)
    assert mass * p**9 == count_O_Fp(p)


def test_local_density_expanded_form():
    for p in primes_up_to(100).tolist():
        q = Fraction(1, p)
        assert _local_density(p) == (1 - q) ** 5 * (1 + 5 * q + 6 * q**2 + 5 * q**3 + q**4)


def test_factor_identities():
    for p in primes_up_to(1000).tolist():
        assert factor_identity_check(p)


def test_factor_identity_integers_are_the_fraction_factors():
    # p^9 and p^6 times the oracle's Fraction factors, side by side: the
    # integer check compares the same factors, not merely some true identity
    for p in primes_up_to(500).tolist():
        density, zeta_graph, graph, product = oracles.euler_factors(p)
        scaled = (p**9 * density, p**9 * zeta_graph, p**6 * graph, p**6 * product)
        assert _euler_factor_polynomials(p) == scaled
        assert oracles.factor_identity_check(p) and factor_identity_check(p)


@pytest.mark.parametrize("side", range(4))
def test_factor_identity_check_fails_on_a_perturbed_constant_term(monkeypatch, side):
    # negative control: one side's constant term one higher fails every prime
    def perturbed(p):
        sides = list(_euler_factor_polynomials(p))
        sides[side] += 1
        return tuple(sides)

    monkeypatch.setattr(peyre, "_euler_factor_polynomials", perturbed)
    assert not any(factor_identity_check(p) for p in primes_up_to(500).tolist())


# --- archimedean density ---------------------------------------------------------


def test_archimedean_density_hits_target_within_one_percent():
    report = archimedean_density(0.01)
    assert abs(report.value - MU_TARGET) / MU_TARGET < 0.01
    assert abs(report.value - MU_TARGET) <= report.tolerance


# (96, 192) and (128, 256), the last two scheduled pairs, cost too much here
@pytest.mark.parametrize("n_lo, n_hi", [(16, 32), (32, 64), (64, 128)])
def test_archimedean_error_bound_contains_target_at_each_level(monkeypatch, n_lo, n_hi):
    # tolerance 1.0 accepts the one scheduled pair; its bound must still
    # bracket the target (no false convergence claims)
    monkeypatch.setattr(peyre, "_QUAD_SCHEDULE", ((n_lo, n_hi),))
    report = archimedean_density(1.0)
    assert report.provenance["levels"] == [n_lo, n_hi]
    assert abs(report.value - MU_TARGET) <= report.tolerance


def test_archimedean_samples_count_each_level_once():
    # (16, 32) then (32, 64): the levels 16, 32 and 64, both values of eps
    report = archimedean_density(0.03)
    assert report.provenance["levels"] == [32, 64]
    assert report.provenance["samples"] == 2 * (16**3 + 32**3 + 64**3) == 598016
    # the distinct (alpha/K, beta/K^2) pairs the kernel ran on
    assert report.provenance["evaluations"] == 777 + 3217 + 13089 == 17083


def test_archimedean_nonconvergence_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(peyre, "_QUAD_SCHEDULE", ((16, 32),))
    with pytest.raises(QuadratureNonconvergence, match="schedule") as info:
        archimedean_density(1e-3)
    assert abs(info.value.best_value - MU_TARGET) <= info.value.error_estimate


def _inner_at(t1, t2, t4):
    """The inner integral at a general (t1, t2, t4), both couplings, the way
    ``_level_pairs`` reduces it: s = K sigma makes it K^-3 times the kernel at
    K = 1 and (alpha/K, beta/K^2)."""
    t1, t2, t4 = (np.atleast_1d(np.asarray(t, dtype=np.float64)) for t in (t1, t2, t4))
    K = np.maximum(np.maximum(t1, t2), np.maximum(t4, 1.0))
    return tuple(f / K**3 for f in _inner_pair(t1 / t4 / K, t2 / (K * K)))


def test_archimedean_orthant_symmetry():
    # flipping every sign fixes the coupling sign, so opposite orthants give
    # identical integrals; the implementation integrates each coupling class
    # once, and the two classes differ
    plus, minus = _inner_at(0.7, 1.3, 0.4)
    assert plus.shape == minus.shape == (1,)
    assert plus[0] != minus[0]
    assert _inner_at(0.7, 1.3, 0.4)[0][0] == plus[0]  # deterministic


_LOG_T = st.floats(-18.0, 18.0)


@settings(max_examples=300)
@given(st.lists(st.tuples(_LOG_T, _LOG_T, _LOG_T), min_size=1, max_size=8),
       st.sampled_from([1.0, -1.0]))
@example([(-8.0, 0.0, 1.192092896e-07), (-18.0, 0.0, 0.0)], 1.0)  # alpha << s near b = 1
def test_inner_integral_array_kernel_against_scalar_oracle(logs, eps):
    # the general-t oracle against the kernel at K = 1 through s = K sigma
    t1, t2, t4 = (np.exp(np.array(col)) for col in zip(*logs))
    got = _inner_at(t1, t2, t4)[0 if eps > 0 else 1]
    for j in range(len(logs)):
        want = oracles.inner_t5(float(t1[j]), float(t2[j]), float(t4[j]), eps)
        assert got[j] == pytest.approx(want, rel=1e-12)


def _assert_tails_match_the_oracle(alpha, s, w):
    plus, minus = _tail_plus(alpha, s), _tail_minus(w)
    for j in range(len(alpha)):
        want = oracles.tail_plus(float(alpha[j]), float(s[j]))
        assert plus[j] == pytest.approx(want, rel=1e-14)
        assert minus[j] == pytest.approx(oracles.tail_minus(float(w[j])), rel=1e-14)


@settings(max_examples=300)
@given(st.lists(st.floats(math.log(1e-24), math.log(0.6)), min_size=1, max_size=8),
       st.floats(-36.0, 36.0))
@example([math.log(1e-24)], 0.0)
def test_series_tails_against_scalar_oracle(log_zs, log_alpha):
    # z = alpha / (alpha + s) and w from 1e-24 to 0.6: the series below 1/2,
    # the logarithms from 1/2 on
    z = np.exp(np.array(log_zs))
    alpha = np.full_like(z, math.exp(log_alpha))
    _assert_tails_match_the_oracle(alpha, alpha * (1.0 - z) / z, z)


def test_series_tails_against_scalar_oracle_at_the_switch():
    # z and w just under 1/2 (the series), at 1/2 and just over (the logarithms)
    alpha = np.ones(3)
    s = np.array([1.0 + 2.0**-51, 1.0, 1.0 - 2.0**-51])
    w = np.array([math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)])
    z = alpha / (alpha + s)
    assert z[0] < 0.5 == z[1] < z[2]
    _assert_tails_match_the_oracle(alpha, s, w)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_outer_level_against_scalar_triple_loop(n):
    assert _outer_level(n, 18.0) == pytest.approx(oracles.outer_level(n, 18.0), rel=1e-11)


@pytest.mark.parametrize("n", [16, 32])
def test_outer_level_is_the_exactly_rounded_sum_of_its_terms(n):
    h = 2.0 * 18.0 / n
    want = 8.0 * math.fsum(oracles.outer_level_terms(n, 18.0)) * h**3
    assert _outer_level(n, 18.0) == pytest.approx(want, rel=1e-13)


def test_outer_level_bits_are_pinned():
    # the printed constants follow these levels to the last bit
    assert [_outer_level(n, 18.0) for n in (16, 32, 64, 128)] == [
        361.209172635451, 303.493214422582, 287.4435437118003, 283.41401658237345
    ]


@pytest.mark.parametrize("n", [2, 4, 6, 16, 32, 64])
def test_level_pairs_are_few_and_carry_every_point(n):
    # 13 n^2/4 - 7 n/2 + 1 distinct pairs for even n; their weights add up to
    # the grid's sum of t1 t2 / K^3
    alpha, beta, weight = _level_pairs(n, 18.0)
    assert len(weight) == 13 * n * n // 4 - 7 * n // 2 + 1
    assert len(set(zip(alpha.tolist(), beta.tolist()))) == len(weight)
    ts = np.exp(-18.0 + 36.0 / n * (np.arange(n) + 0.5))
    g1, g2, g4 = np.meshgrid(ts, ts, ts, indexing="ij")
    K = np.maximum(np.maximum(g1, g2), np.maximum(g4, 1.0))
    assert math.fsum(weight) == pytest.approx(math.fsum((g1 * g2 / K**3).ravel()), rel=1e-13)


def test_outer_level_memory_stays_below_one_grid_array():
    # one n^3 float64 array at n = 128 is 16 MiB; a level holds O(n^2) entries
    # and one chunk of kernel temporaries
    import tracemalloc

    _level_pairs.cache_clear()
    tracemalloc.start()
    try:
        _outer_level.__wrapped__(128, 18.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 128**3


def _adaptive_inner(t1, t2, t4, eps):
    """The inner integral by mpmath's quadrature in log s, split at every
    breakpoint, with the tail below s = e^-70 in closed form."""
    import mpmath as mp

    K = max(t1, t2, t4, 1.0)
    alpha, beta = t1 / t4, t2

    def integrand(ls):
        s = mp.e ** mp.mpf(ls)
        return 1 / max(K, beta / s, abs(alpha + eps * s)) ** 3

    bps = {beta / K, abs(alpha - K), alpha + K, alpha}
    disc = alpha * alpha - 4.0 * beta
    if disc >= 0:
        r2 = 0.5 * (alpha + math.sqrt(disc))
        bps.update((r2, beta / r2))
    # beta / s meets s - alpha (eps = -1) and alpha + s (eps = +1)
    sq = math.sqrt(alpha * alpha + 4.0 * beta)
    bps.update((0.5 * (alpha + sq), 2.0 * beta / (alpha + sq)))
    grid = [mp.mpf(-70)] + sorted(mp.log(b) for b in bps if b > 0) + [mp.mpf(70)]
    return float(mp.quad(integrand, grid) + mp.e ** mp.mpf(-210) / (3 * mp.mpf(beta) ** 3))


def test_inner_integral_against_adaptive_quadrature():
    for (t1, t2, t4, eps) in [
        (0.5, 2.0, 1.5, 1.0),
        (3.0, 0.2, 0.9, -1.0),
        (40.0, 0.01, 0.003, -1.0),
        (0.02, 5.0, 7.0, 1.0),
        # log t = (0, 2.5e-13, 0): the kink where beta / s = alpha + s, at
        # s = 0.618, which the reference must split at to converge
        (1.0, math.exp(2.5e-13), 1.0, 1.0),
    ]:
        got = _inner_at(t1, t2, t4)[0 if eps > 0 else 1][0]
        assert got == pytest.approx(_adaptive_inner(t1, t2, t4, eps), rel=1e-9)


def test_inner_integral_where_alpha_dwarfs_K():
    # alpha = e^30.56 against K = e^12.59: the K-branch piece between alpha and
    # alpha + K has b/prev - 1 = e^-18, which a rounded ratio would cost 3e-9
    import mpmath as mp

    t1, t2, t4 = (math.exp(v) for v in (12.59, -17.03, -17.97))
    with mp.workdps(40):
        want = _adaptive_inner(t1, t2, t4, -1.0)
    assert _inner_at(t1, t2, t4)[1][0] == pytest.approx(want, rel=1e-12)
    assert oracles.inner_t5(t1, t2, t4, -1.0) == pytest.approx(want, rel=1e-12)


# --- constant assembly -----------------------------------------------------------


def test_scalar_prefactor_identity():
    lhs, rhs = oracles.scalar_prefactor_identity()
    assert abs(lhs - rhs) < 1e-12
    assert abs(lhs - 0.5 * TWO_PI_LOG_CONSTANT) < 1e-12  # the package's form of the constant


def test_alpha_times_archimedean_prefactor():
    # 12/3888 == 1/324: the alpha-weighted archimedean prefactor
    assert 12 * alpha_invariant() == Fraction(1, 324)


def test_leading_coefficient_ties_to_graph_module():
    report = leading_coeff_V(50_000)
    xi_val, _ = xi(SENARY_GRAPH, (1.0,) * 6, 50_000)
    assert report.value == pytest.approx(0.5 * TWO_PI_LOG_CONSTANT * xi_val, rel=1e-14)


def test_peyre_theta_two_paths_agree():
    report = peyre_theta(10_000, 0.01)
    prov = report.provenance
    allow = report.tolerance
    assert abs(prov["assembled"] - prov["closed_form"]) <= allow
    # the tolerance counts the Euler tail once, at theta's scale
    product = prov["closed_form"] / (TWO_PI_LOG_CONSTANT / 324.0)
    quadrature = float(alpha_invariant()) * prov["quadrature_tolerance"] * product
    euler = prov["closed_form"] / product * prov["euler_tail"]
    assert allow == pytest.approx(quadrature + euler, rel=1e-12)


def test_peyre_theta_refuses_a_large_prime_limit_before_the_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the quadrature ran first")

    monkeypatch.setattr(peyre, "archimedean_density", no_quadrature)
    with pytest.raises(ValueError, match="prime limit must be <= 100000000"):
        peyre_theta(10**11, 0.003)


@pytest.mark.parametrize("limit", [10**5, 10**6])
def test_euler_product_drift_between_prime_limits(limit):
    # the true tail, read off the product over 100 or 10 times more primes
    value, tail = _euler_product_local(limit)
    reference, _ = _euler_product_local(10**7)
    true_tail = abs(value - reference)
    assert true_tail <= tail <= 10 * true_tail


def test_consistency_V_to_N():
    # (1/162) zeta(3)^-1 x leading_V equals the closed-form theta: theta's
    # Euler product is xi over the whole zeta(3)
    prime_limit = 10_000
    lhs = leading_coeff_V(prime_limit).value / _zeta(3.0) / 162.0
    product, _ = _euler_product_local(prime_limit)
    rhs = (TWO_PI_LOG_CONSTANT / 324.0) * product
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_consistency_exact_per_prime():
    # with the zeta(3) factor truncated to the same primes, the identity is
    # exact factor by factor
    for p in primes_up_to(50).tolist():
        q = Fraction(1, p)
        graph_factor = 1 - 9 * q**2 + 16 * q**3 - 9 * q**4 + q**6
        assert (1 - q**3) * graph_factor == _local_density(p)


def test_constant_report_validates_tolerance():
    with pytest.raises(ValueError):
        ConstantReport("alpha", 0.5, Fraction(1, 3888), 1e-9)
    report = ConstantReport("alpha", float(Fraction(1, 3888)), Fraction(1, 3888), 1e-15)
    assert '"exact": "1/3888"' in report.to_json()
