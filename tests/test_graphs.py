import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import subset_euler_factor, xi_per_mask

from senary import graphs
from senary.graphs import (
    SENARY_GRAPH,
    CoprimalityGraph,
    b_coefficients,
    euler_factor,
    euler_factor_exact,
    sg_polynomial,
    tg_series_check,
    truncated_DG,
    verify_theorem3,
    xi,
)

SINGLE_EDGE = CoprimalityGraph.from_edges(2, [(1, 2)])
TRIANGLE = CoprimalityGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
EMPTY2 = CoprimalityGraph.from_edges(2, [])


def test_graph_validation():
    with pytest.raises(ValueError):
        CoprimalityGraph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        CoprimalityGraph.from_edges(2, [(1, 3)])


def test_graph_parse():
    g = CoprimalityGraph.parse("r=6;edges=1-2,1-3,2-3,4-5,5-6,4-6,1-4,2-5,3-6")
    assert g == SENARY_GRAPH
    assert CoprimalityGraph.parse("senary") == SENARY_GRAPH
    assert CoprimalityGraph.parse("r=3;edges=") == CoprimalityGraph.from_edges(3, [])
    with pytest.raises(ValueError):
        CoprimalityGraph.parse("edges=1-2")


def test_graph_spec_names_each_edge_and_field_once():
    # the edges become a frozenset, which would merge a repeated edge, and a
    # repeated field would overwrite the first
    for edges in ([(1, 2), (2, 1)], [(1, 2), (1, 2)]):
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            CoprimalityGraph.from_edges(3, edges)
    for spec in ("r=3;edges=1-2,2-1", "r=3;edges=1-2,1-2"):
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            CoprimalityGraph.parse(spec)
    for spec, field in (("r=3;r=4;edges=1-2", "r"), ("r=3;edges=1-2;edges=2-3", "edges")):
        with pytest.raises(ValueError, match=f"graph field '{field}' given twice"):
            CoprimalityGraph.parse(spec)


def test_graph_spec_names_the_field_of_a_malformed_number():
    for spec, field, token in (
        ("r=x;edges=1-2", "r", "'x'"),
        ("r=3;edges=1-2,", "edges", "''"),
        ("r=3;edges=1-2-3", "edges", "'2-3'"),
    ):
        with pytest.raises(ValueError, match=f"^graph field '{field}': {token} is not an integer$"):
            CoprimalityGraph.parse(spec)


def test_sg_polynomial_single_edge():
    poly = sg_polynomial(SINGLE_EDGE)
    assert poly == {0: 1, 0b11: -1}  # 1 - x1 x2


def test_sg_polynomial_empty():
    assert sg_polynomial(EMPTY2) == {0: 1}


def test_sg_polynomial_triangle():
    poly = sg_polynomial(TRIANGLE)
    assert poly == {0: 1, 0b011: -1, 0b101: -1, 0b110: -1, 0b111: 2}


def _sg_brute(G):
    """Independent subset-enumeration oracle over explicit edge lists."""
    coeffs = {}
    edges = G.edge_list
    for k in range(len(edges) + 1):
        for U in itertools.combinations(edges, k):
            mask = 0
            for a, b in U:
                mask |= (1 << (a - 1)) | (1 << (b - 1))
            coeffs[mask] = coeffs.get(mask, 0) + (-1) ** k
    return {m: c for m, c in coeffs.items() if c != 0}


@st.composite
def _graphs(draw, max_edges=14):
    """A graph on at most 7 vertices with at most ``max_edges`` edges."""
    r = draw(st.integers(2, 7))
    all_edges = list(itertools.combinations(range(1, r + 1), 2))
    edges = draw(st.sets(st.sampled_from(all_edges), max_size=min(max_edges, len(all_edges))))
    return CoprimalityGraph.from_edges(r, edges)


@settings(max_examples=40)
@given(_graphs())
@example(CoprimalityGraph.from_edges(6, itertools.combinations(range(1, 7), 2)))  # K6
def test_sg_polynomial_against_brute_force(G):
    poly = sg_polynomial(G)
    assert poly == _sg_brute(G)
    # euler_factor's float bytes depend on this order
    assert list(poly) == sorted(poly)


def test_b_vector_paper_graph():
    assert b_coefficients(SENARY_GRAPH) == (1, 0, -9, 16, -9, 0, 1)


def test_b_vector_small_graphs():
    assert b_coefficients(SINGLE_EDGE) == (1, 0, -1)
    assert b_coefficients(TRIANGLE) == (1, 0, -3, 2)


def _random_graph(rng, r_max=8, e_max=12):
    r = rng.randint(2, r_max)
    all_edges = list(itertools.combinations(range(1, r + 1), 2))
    k = rng.randint(1, min(e_max, len(all_edges)))
    return CoprimalityGraph.from_edges(r, rng.sample(all_edges, k))


def test_b_vector_at_the_build_cap():
    # 24 edges building 2^20 terms, |E| x terms = 24 x 2^20 exactly: two
    # copies of a 7-edge graph with 2^5 unions of edges each, and a 10-edge
    # matching.  b multiplies over components, (1, 0, -1) per matching edge
    part = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 6), (3, 6)]
    edges = part + [(k + 6, l + 6) for k, l in part]
    edges += [(13 + 2 * i, 14 + 2 * i) for i in range(10)]
    part_b = [0] * 7
    for mask, coeff in _sg_brute(CoprimalityGraph.from_edges(6, part)).items():
        part_b[mask.bit_count()] += coeff
    want = np.array([1])
    for factor in [part_b] * 2 + [(1, 0, -1)] * 10:
        want = np.convolve(want, factor)
    assert b_coefficients(CoprimalityGraph.from_edges(32, edges)) == tuple(want.tolist())


def test_b_vector_structure_on_random_graphs():
    rng = random.Random(0)
    for _ in range(100):
        G = _random_graph(rng)
        b = b_coefficients(G)
        assert b[0] == 1 and b[1] == 0
        assert b[2] == -len(G.edges)
        assert sum(b) == 0  # any graph with at least one edge


def test_b_vector_isomorphism_invariance():
    rng = random.Random(1)
    for _ in range(30):
        G = _random_graph(rng, r_max=7)
        perm = list(range(1, G.r + 1))
        rng.shuffle(perm)
        relabeled = CoprimalityGraph.from_edges(
            G.r, [(perm[a - 1], perm[b - 1]) for a, b in G.edges]
        )
        assert b_coefficients(relabeled) == b_coefficients(G)


def test_euler_factor_examples():
    assert euler_factor_exact(SENARY_GRAPH, 2, [1] * 6) == Fraction(13, 64)
    assert euler_factor(EMPTY2, 5, (0.9, 2.3)) == 1.0
    assert json.dumps(euler_factor(EMPTY2, 5, (0.9, 2.3))) == "1"  # an int, as printed
    assert euler_factor(SINGLE_EDGE, 3, (2.0, 2.0)) == pytest.approx(1 - 3.0**-4, abs=1e-15)


def _per_mask_loop(G, p, s):
    """S_G at x_j = p^-s_j as one scalar loop over the brute-force subset
    polynomial: each term from the lowest bit up, the terms in ascending mask
    order, starting from the int 0."""
    x = [p ** (-sj) for sj in s]
    value = 0
    for mask, coeff in sorted(_sg_brute(G).items()):
        term = coeff
        for j in range(mask.bit_length()):
            if mask >> j & 1:
                term = term * x[j]
        value = value + term
    return value


@settings(max_examples=200)
@given(
    st.data(),
    _graphs(max_edges=10),
    st.sampled_from([2, 3, 5, 7, 13, 101, 2**31 - 1]),
)
def test_euler_factor_bytes_are_the_per_mask_loop(data, G, p):
    # the array evaluation keeps the loop's order, so its float bytes
    s = data.draw(st.lists(st.floats(-3.0, 5.0), min_size=G.r, max_size=G.r))
    want = _per_mask_loop(G, p, s)
    assert json.dumps(euler_factor(G, p, s)) == json.dumps(want)


def test_euler_factor_via_b_vector():
    for p in (2, 3, 5, 7):
        b = b_coefficients(SENARY_GRAPH)
        closed = sum(Fraction(bk, p**k) for k, bk in enumerate(b))
        assert euler_factor_exact(SENARY_GRAPH, p, [1] * 6) == closed


@settings(max_examples=200)
@given(
    st.data(),
    _graphs(max_edges=8),
    st.sampled_from([2, 3, 5, 7, 13, 101, 2**31 - 1]),
)
def test_euler_factor_exact_against_a_fraction_per_subset(data, G, p):
    s = data.draw(st.lists(st.integers(-3, 5), min_size=G.r, max_size=G.r))
    assert euler_factor_exact(G, p, s) == subset_euler_factor(G.edge_list, p, s)


def test_paper_factor_identity_per_prime():
    # (1 - 9/p^2 + 16/p^3 - 9/p^4 + 1/p^6) == (1 - 1/p)^4 (1 + 4/p + 1/p^2)
    from senary.arith import primes_up_to

    for p in primes_up_to(500).tolist():
        q = Fraction(1, p)
        lhs = euler_factor_exact(SENARY_GRAPH, p, [1] * 6)
        assert lhs == 1 - 9 * q**2 + 16 * q**3 - 9 * q**4 + q**6
        assert lhs == (1 - q) ** 4 * (1 + 4 * q + q**2)


def test_xi_empty_graph_is_one():
    value, tail = xi(EMPTY2, (0.9, 0.7), 1000)
    assert value == 1.0 and tail == 0.0


def test_xi_exponent_sum_past_the_largest_float():
    # p^-inf is 0, so the factors are 1 and the tail bound is 0, not NaN
    assert xi(SINGLE_EDGE, (1e308, 1e308), 1000) == (1.0, 0.0)


def test_xi_single_edge_closed_form():
    value, tail = xi(SINGLE_EDGE, (2.0, 2.0), 100_000)
    assert abs(value - 90.0 / math.pi**4) <= tail + 1e-12


@pytest.mark.parametrize("limit", [10**5, 10**6])
def test_xi_tail_bound_is_honest(limit):
    # the true tail, read off the product over 100 or 10 times more primes
    value, tail = xi(SENARY_GRAPH, (1.0,) * 6, limit)
    reference, _ = xi(SENARY_GRAPH, (1.0,) * 6, 10**7)
    true_tail = abs(value - reference)
    assert true_tail <= tail <= 10 * true_tail


def test_xi_rejects_nonconvergent_exponents():
    with pytest.raises(ValueError):
        xi(SINGLE_EDGE, (0.4, 2.0), 1000)
    with pytest.raises(ValueError):
        xi(SINGLE_EDGE, (0.5, 0.5), 1000)


def test_truncated_dg_empty_graph_factorizes():
    value, _ = truncated_DG(EMPTY2, (2.0, 2.0), 100)
    partial = sum(n**-2.0 for n in range(1, 101))
    assert value == pytest.approx(partial**2, rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_factor(SENARY_GRAPH, 4, (1.0,) * 6),
        lambda: euler_factor(SENARY_GRAPH, 2, (1.0,) * 7),
        lambda: euler_factor_exact(SENARY_GRAPH, 0, [1] * 6),
        lambda: xi(EMPTY2, (2.0, 2.0), 1),
        lambda: tg_series_check(SINGLE_EDGE, -1),
        lambda: euler_factor(SENARY_GRAPH, 2, (math.nan,) + (1.0,) * 5),
        lambda: euler_factor_exact(SINGLE_EDGE, 2, [2**62, 0]),
    ],
    ids=["composite-p", "extra-exponent", "zero-p", "xi-limit-1", "negative-degree",
         "nan-exponent", "exponent-sum-2^62"],
)
def test_bad_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("N", [0, -3])
def test_truncated_dg_rejects_non_positive_truncation(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        truncated_DG(SINGLE_EDGE, (2.0, 2.0), N)


def test_truncated_dg_against_direct_triple_loop():
    s = (2.0, 1.8, 2.2)
    N = 30
    direct = 0.0
    for n1 in range(1, N + 1):
        for n2 in range(1, N + 1):
            if math.gcd(n1, n2) != 1:
                continue
            for n3 in range(1, N + 1):
                if math.gcd(n1, n3) == 1 and math.gcd(n2, n3) == 1:
                    direct += n1 ** -s[0] * n2 ** -s[1] * n3 ** -s[2]
    value, _ = truncated_DG(TRIANGLE, s, N)
    assert value == pytest.approx(direct, rel=1e-11)


def _dg_direct(G, s, N):
    """r-fold product loop; exponential, keep N tiny."""
    total = 0.0
    for n in itertools.product(range(1, N + 1), repeat=G.r):
        if all(math.gcd(n[k - 1], n[l - 1]) == 1 for k, l in G.edges):
            term = 1.0
            for v, sv in zip(n, s):
                term *= v ** (-sv)
            total += term
    return total


def test_truncated_dg_senary_against_direct_loop():
    s = (2.0,) * 6
    value, _ = truncated_DG(SENARY_GRAPH, s, 6)
    assert value == pytest.approx(_dg_direct(SENARY_GRAPH, s, 6), rel=1e-12)


@settings(max_examples=40)
@given(st.integers(2, 6), st.data())
def test_truncated_dg_property_against_direct_loop(r, data):
    # r = 5, 6 reach prism-like and dense graphs (elimination width up to 5)
    all_edges = list(itertools.combinations(range(1, r + 1), 2))
    edges = data.draw(st.sets(st.sampled_from(all_edges), max_size=len(all_edges)))
    s = tuple(data.draw(st.floats(1.5, 3.0)) for _ in range(r))
    N = data.draw(st.integers(2, 12 if r <= 4 else 5))
    G = CoprimalityGraph.from_edges(r, edges)
    value, _ = truncated_DG(G, s, N)
    assert value == pytest.approx(_dg_direct(G, s, N), rel=1e-10)


def test_truncated_dg_complete_graph_against_direct_loop():
    K6 = CoprimalityGraph.from_edges(6, itertools.combinations(range(1, 7), 2))
    s = (1.5, 1.7, 2.0, 2.2, 2.5, 3.0)
    value, _ = truncated_DG(K6, s, 5)
    assert value == pytest.approx(_dg_direct(K6, s, 5), rel=1e-12)


def test_truncated_dg_senary_pin_at_50():
    # the value the depth-first search over radical tuples gave before the
    # series was contracted by variable elimination
    value, _ = truncated_DG(SENARY_GRAPH, (2.0,) * 6, 50)
    assert value == pytest.approx(10.896829417701161, rel=1e-12)


def test_truncated_dg_refuses_an_intractable_contraction():
    # R = 6083 radicals up to 10^4 and width 3: a 2.3e11-entry factor
    with pytest.raises(ValueError, match="intermediate"):
        truncated_DG(SENARY_GRAPH, (2.0,) * 6, 10_000)


def test_verify_theorem3_checks_prime_limit_before_truncating(monkeypatch):
    def never(*args):
        raise AssertionError("truncated_DG ran before prime_limit was checked")

    monkeypatch.setattr(graphs, "truncated_DG", never)
    with pytest.raises(ValueError, match="prime limit must be >= 2"):
        verify_theorem3(SENARY_GRAPH, (2.0,) * 6, 50, prime_limit=0)


@st.composite
def _graphs_and_exponents(draw):
    """A graph of ``_graphs`` and exponents in [0.75, 4] with 1 to 17 digits
    after the point: few digits make many masks share an exponent sum."""
    G = draw(_graphs(max_edges=10))
    digits = draw(st.integers(1, 17))
    exponent = st.floats(0.75, 4.0).map(lambda v: round(v, digits))
    return G, draw(st.lists(exponent, min_size=G.r, max_size=G.r))


@settings(max_examples=150)
@given(_graphs_and_exponents(), st.sampled_from([1000, 100_000]))
@example((SENARY_GRAPH, [1.3, 0.9, 1.1, 0.8, 1.2, 1.0]), 1000)
@example((SENARY_GRAPH, [1.0] * 6), 100_000)
def test_xi_bytes_are_the_per_mask_loop(graph_and_s, prime_limit):
    # the exponent sums over mask arrays keep the loop's order, so the value
    # and the tail bound keep their bits
    G, s = graph_and_s
    assert xi(G, s, prime_limit) == xi_per_mask(_sg_brute(G), s, prime_limit)


def test_xi_matches_per_prime_factor_loop():
    from senary.arith import primes_up_to

    s = (1.3, 0.9, 1.1, 0.8, 1.2, 1.0)
    value, _ = xi(SENARY_GRAPH, s, 200)
    direct = 1.0
    for p in primes_up_to(200).tolist():
        direct *= euler_factor(SENARY_GRAPH, p, s)
    assert value == pytest.approx(direct, rel=1e-12)


def test_truncated_dg_single_edge_reaches_closed_form():
    value, tail = truncated_DG(SINGLE_EDGE, (2.0, 2.0), 2000)
    closed = (math.pi**2 / 6.0) ** 2 / (math.pi**4 / 90.0)  # zeta(2)^2 / zeta(4)
    assert closed == pytest.approx(2.5)
    assert abs(value - closed) <= tail


def test_verify_theorem3_single_edge():
    ok, residual, allowance = verify_theorem3(SINGLE_EDGE, (2.0, 2.0), 2000, 10_000)
    assert ok and abs(residual) <= allowance


def test_verify_theorem3_triangle_uneven_exponents():
    ok, residual, allowance = verify_theorem3(TRIANGLE, (1.6, 1.7, 1.8), 600, 10_000)
    assert ok and abs(residual) <= allowance
    # the residual is a genuine truncation tail: the truncation of a positive
    # series falls short, by well under the union bound the allowance holds
    _, lhs_tail = truncated_DG(TRIANGLE, (1.6, 1.7, 1.8), 600)
    assert residual < 0
    assert abs(residual) < 0.6 * lhs_tail


@settings(max_examples=300)
@given(st.floats(min_value=1, max_value=500, exclude_min=True))
@example(1 + 1e-9)
@example(1.001)
@example(1.5)
@example(1.6)
@example(2.0)
@example(3.0)
@example(10.0)
@example(60.0)
@example(500.0)
def test_zeta_matches_mpmath(s):
    with mpmath.workdps(50):
        exact = mpmath.zeta(s)
        assert abs((graphs._zeta(s) - exact) / exact) <= 1e-15


def test_zeta_is_one_at_huge_s():
    # past s = 1.34e154 the Bernoulli factor overflows while the term it
    # multiplies has underflowed to 0
    assert graphs._zeta(1e155) == graphs._zeta(1e308) == 1.0


@pytest.mark.parametrize("s", [1.0, 0.5, 0.0, -2.0, float("nan"), float("inf"), float("-inf")])
def test_zeta_refuses_s_outside_its_domain(s):
    with pytest.raises(ValueError):
        graphs._zeta(s)


@pytest.mark.parametrize(
    "G, s",
    [(SENARY_GRAPH, (2.0,) * 6), (TRIANGLE, (1.6, 1.7, 1.8)), (SINGLE_EDGE, (1.001, 40.0))],
)
def test_dg_tail_matches_the_scipy_zeta(G, s):
    from scipy.special import zeta as scipy_zeta

    for N in (1, 50, 2000):
        rest = [math.prod(float(scipy_zeta(x)) for x in s[:j] + s[j + 1 :]) for j in range(G.r)]
        expected = sum(N ** (1.0 - s[j]) / (s[j] - 1.0) * rest[j] for j in range(G.r))
        assert graphs._dg_tail(G, s, N) == pytest.approx(expected, rel=1e-14)


def test_tg_series_empty_and_single_edge():
    assert tg_series_check(EMPTY2, 5)
    assert tg_series_check(SINGLE_EDGE, 5)


def test_tg_series_senary_degree_4():
    assert tg_series_check(SENARY_GRAPH, 4)


def test_tg_series_small_graphs_degree_5():
    for r in range(1, 5):
        all_edges = list(itertools.combinations(range(1, r + 1), 2))
        for k in range(0, min(6, len(all_edges)) + 1):
            for edges in itertools.combinations(all_edges, k):
                assert tg_series_check(CoprimalityGraph.from_edges(r, edges), 5)
