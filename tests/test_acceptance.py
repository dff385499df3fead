"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  All tolerances are fixed here, none are tuned at runtime.
"""

import itertools
import random
import time
from fractions import Fraction

from oracles import scalar_prefactor_identity
from senary.arith import integer_cube_root, primes_up_to
from senary.cubic import count_N, naive_count_V
from senary.graphs import (
    SENARY_GRAPH,
    CoprimalityGraph,
    b_coefficients,
    tg_series_check,
    verify_theorem3,
)
from senary.peyre import (
    TWO_PI_LOG_CONSTANT,
    alpha_invariant,
    archimedean_density,
    factor_identity_check,
    peyre_theta,
    polytope_volume,
)
from senary.peyre import ALPHA_POLYTOPE
from senary.torsor import (
    count_O_Fp,
    count_X_Fp,
    torsor_count_N,
    torsor_count_V,
    verify_bijection,
)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    v1 = None
    for P in range(1, 51):
        naive = naive_count_V(P).count
        torsor = torsor_count_V(P).count
        if P == 1:
            v1 = naive
        if naive != torsor:
            mismatches.append((P, naive, torsor))
    elapsed = time.perf_counter() - t0
    _report(
        "01 oracle equivalence V(P), P=1..50",
        not mismatches and v1 == 56 and elapsed < 300.0,
        f"V(1)={v1}, mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_02_bijection():
    ok = all(verify_bijection(P) for P in range(1, 11))
    control = not verify_bijection(5, drop_w_coprimality=True)
    _report("02 lattice-parameter bijection P=1..10 + negative control", ok and control)


def test_criterion_03_primitive_counts_and_mobius():
    heights = (1, 8, 27, 64, 1000, 8000)
    pairs = [(count_N(B).count, torsor_count_N(B).count) for B in heights]
    counts_ok = all(a == b for a, b in pairs) and pairs[0][0] == 28
    # both sides of the inversion identity depend on B only through
    # R = floor(B^(1/3)), so checking every cube R^3 <= 27000 covers all
    # B <= 27000; spot-check that floor dependence on non-cube heights
    from senary.cubic import mobius_check

    ladder = mobius_check(27000)
    mobius_ok = [B for B, _, _ in ladder] == [R**3 for R in range(1, 31)] and all(
        ok and diff == 0 for _, ok, diff in ladder
    )
    floor_ok = all(
        mobius_check(B) == mobius_check(integer_cube_root(B) ** 3)
        and count_N(B).count == count_N(integer_cube_root(B) ** 3).count
        for B in (7, 100, 12345)
    )
    _report(
        "03 primitive counts + Moebius inversion to B=27000",
        counts_ok and mobius_ok and floor_ok,
        f"N values {[a for a, _ in pairs]}",
    )


def test_criterion_04_graph_combinatorics():
    senary_ok = b_coefficients(SENARY_GRAPH) == (1, 0, -9, 16, -9, 0, 1)
    rng = random.Random(0)
    random_ok = True
    for _ in range(200):
        r = rng.randint(2, 8)
        all_edges = list(itertools.combinations(range(1, r + 1), 2))
        edges = rng.sample(all_edges, rng.randint(1, min(12, len(all_edges))))
        b = b_coefficients(CoprimalityGraph.from_edges(r, edges))
        random_ok = random_ok and sum(b) == 0 and b[2] == -len(edges)
    _report("04 b-vector of the senary graph + 200 random graphs", senary_ok and random_ok)


def test_criterion_05_theorem3_numeric():
    ok6, res6, allow6 = verify_theorem3(SENARY_GRAPH, (2.0,) * 6, 50, 100_000)
    edge = CoprimalityGraph.from_edges(2, [(1, 2)])
    ok2, res2, allow2 = verify_theorem3(edge, (2.0, 2.0), 2000, 100_000)
    # single-edge closed form: the full series equals zeta(2)^2/zeta(4) = 5/2
    from senary.graphs import truncated_DG

    value, tail = truncated_DG(edge, (2.0, 2.0), 2000)
    closed_ok = abs(value - 2.5) <= tail
    _report(
        "05 theorem-3 numeric check (senary s=2, single edge vs closed form)",
        ok6 and ok2 and closed_ok,
        f"senary residual {res6:.3f} <= {allow6:.3f}; edge residual {res2:.2e} <= {allow2:.2e}",
    )


def test_criterion_06_series_identity_exact():
    senary_ok = tg_series_check(SENARY_GRAPH, 4)
    small_ok = True
    for r in range(1, 6):
        all_edges = list(itertools.combinations(range(1, r + 1), 2))
        for k in range(0, min(6, len(all_edges)) + 1):
            for edges in itertools.combinations(all_edges, k):
                small_ok = small_ok and tg_series_check(
                    CoprimalityGraph.from_edges(r, edges), 5
                )
    _report("06 subset-polynomial series identity (exact)", senary_ok and small_ok)


def test_criterion_07_alpha_invariant():
    t0 = time.perf_counter()
    alpha = alpha_invariant()
    vol = polytope_volume(3, ALPHA_POLYTOPE)
    elapsed = time.perf_counter() - t0
    _report(
        "07 alpha invariant",
        alpha == Fraction(1, 3888) and vol == Fraction(1, 108) and elapsed < 1.0,
        f"alpha={alpha}, vol={vol}, {elapsed:.3f}s",
    )


def test_criterion_08_archimedean_density():
    target = 12.0 * TWO_PI_LOG_CONSTANT
    t0 = time.perf_counter()
    report = archimedean_density(0.01)
    elapsed = time.perf_counter() - t0
    rel = abs(report.value - target) / target
    _report(
        "08 archimedean density within 1%",
        rel < 0.01 and abs(report.value - target) <= report.tolerance and elapsed < 120.0,
        f"value={report.value:.4f} target={target:.4f} rel={rel:.2e} {elapsed:.1f}s",
    )


def test_criterion_09_finite_field_counts():
    ok = True
    details = []
    for p in (2, 3, 5, 7, 11):
        t0 = time.perf_counter()
        got = count_O_Fp(p)
        dt = time.perf_counter() - t0
        want = (p - 1) ** 5 * (p * p + p + 1) * (p * p + 4 * p + 1)
        ok = ok and got == want and dt < 10.0
        details.append(f"O(F_{p})={got} ({dt:.2f}s)")
    for p in (2, 3, 5):
        t0 = time.perf_counter()
        got = count_X_Fp(p)
        dt = time.perf_counter() - t0
        ok = ok and got == (p * p + p + 1) * (p * p + 4 * p + 1) and dt < 10.0
        details.append(f"X(F_{p})={got} ({dt:.2f}s)")
    _report("09 finite-field counts", ok, "; ".join(details))


def test_criterion_10_per_prime_factor_identities():
    ok = all(factor_identity_check(p) for p in primes_up_to(10_000).tolist())
    _report("10 per-prime factor identities p <= 10^4 (exact)", ok)


def test_criterion_11_constant_assembly():
    report = peyre_theta(100_000, 0.01)
    prov = report.provenance
    paths_ok = abs(prov["assembled"] - prov["closed_form"]) <= report.tolerance
    lhs, rhs = scalar_prefactor_identity()
    scalar_ok = abs(lhs - rhs) <= 1e-12 and abs(lhs - 0.5 * TWO_PI_LOG_CONSTANT) <= 1e-12
    _report(
        "11 constant assembly (two paths + scalar identity)",
        paths_ok and scalar_ok,
        f"assembled={prov['assembled']:.6g} closed={prov['closed_form']:.6g}",
    )
