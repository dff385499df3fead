import itertools
import math
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    descent_uw_tuples,
    forward_map,
    plane_point_count,
    r_pair_count,
    solutions_via_x3,
    torsor_V_chunk,
)
from senary import cubic, torsor
from senary.arith import integer_cube_root
from senary.cubic import (
    CountReport,
    SolutionSextuple,
    _moebius_weights,
    count_N,
    cubic_form,
    mobius_check,
    naive_count_V,
)
from senary.torsor import (
    TorsorTupleA,
    TriProjectivePoint,
    _coprime_table,
    _floor_sums,
    _inverses,
    _lattice_counts,
    _lattice_runs,
    _torsor_V_chunk,
    _uw_tuples,
    _w_chunks,
    count_O_Fp,
    count_X_Fp,
    lift_to_X,
    pairwise_conditions,
    solution_to_params_A,
    torsor_count_N,
    torsor_count_V,
    verify_bijection,
)


def _lattice_v(u1, u2, u3, r1, r2, r3):
    """The v that the lattice parameters r give: u.v = 0 for every r."""
    return (u2 * r3 - u3 * r2, u3 * r1 - u1 * r3, u1 * r2 - u2 * r1)


def test_forward_map_examples():
    t = TorsorTupleA(1, 1, 1, 1, 1, -1, 0, 1, 1, 1)
    assert forward_map(t) == (1, -1, 0, 1, 1, 1)
    t0 = TorsorTupleA(1, 1, 1, 1, 0, 0, 0, 1, 1, 1)
    assert forward_map(t0) == (0, 0, 0, 1, 1, 1)


def test_tuple_invariants_enforced():
    with pytest.raises(ValueError):
        TorsorTupleA(1, 1, 1, 1, 1, 1, 0, 1, 1, 1)  # bilinear relation fails
    with pytest.raises(ValueError):
        TorsorTupleA(1, 2, 2, 1, 1, -1, 0, 1, 1, 1)  # u1, u2 not coprime
    with pytest.raises(ValueError):
        TorsorTupleA(1, 1, 1, 1, 1, -1, 0, 0, 1, 1)  # w1 zero


def test_inverse_map_examples():
    t = solution_to_params_A(SolutionSextuple(1, -1, 0, 1, 1, 1))
    assert (t.u, t.u1, t.u2, t.u3) == (1, 1, 1, 1)
    assert (t.v1, t.v2, t.v3) == (1, -1, 0)
    assert (t.w1, t.w2, t.w3) == (1, 1, 1)
    # scaling the point by 2 moves the scale into u; the cofactor map x = w*v
    # then forces v = (2, -2, 0)
    t2 = solution_to_params_A(SolutionSextuple(2, -2, 0, 2, 2, 2))
    assert (t2.u, t2.u1, t2.u2, t2.u3) == (2, 1, 1, 1)
    assert (t2.w1, t2.w2, t2.w3) == (1, 1, 1)
    assert (t2.v1, t2.v2, t2.v3) == (2, -2, 0)
    assert forward_map(t2) == (2, -2, 0, 2, 2, 2)


def test_inverse_map_rejects_degenerate():
    with pytest.raises(ValueError):
        solution_to_params_A(SolutionSextuple(0, 1, -1, 0, 1, 1))


def test_round_trip_and_lift_on_all_box_solutions_up_to_10():
    # one pass over every box solution with P <= 10: the descent coordinates
    # must round-trip exactly and the lift must satisfy all three equation
    # families (checked by the TriProjectivePoint constructor)
    for coords in solutions_via_x3(10):
        s = SolutionSextuple(*coords)
        assert forward_map(solution_to_params_A(s)) == coords
        lift_to_X(s)


_units = st.sampled_from([1, 2, 3, 4, 5, 6])
_signs = st.sampled_from([1, -1])


@st.composite
def valid_tuples_A(draw):
    while True:
        u1, u2, u3 = draw(_units), draw(_units), draw(_units)
        if math.gcd(u1, u2) == math.gcd(u2, u3) == math.gcd(u3, u1) == 1:
            break
    while True:
        w1 = draw(_units) * draw(_signs)
        w2 = draw(_units) * draw(_signs)
        w3 = draw(_units) * draw(_signs)
        if pairwise_conditions(u1, u2, u3, w1, w2, w3):
            break
    u = draw(_units)
    r1, r2, r3 = draw(st.integers(-9, 9)), draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    return TorsorTupleA(u, u1, u2, u3, *_lattice_v(u1, u2, u3, r1, r2, r3), w1, w2, w3)


@given(valid_tuples_A())
def test_forward_map_lands_on_solutions(t):
    s = SolutionSextuple(*forward_map(t))
    assert cubic_form(*s.coords) == 0
    assert not s.is_degenerate


@given(valid_tuples_A())
def test_round_trip_property(t):
    coords = forward_map(t)
    assert forward_map(solution_to_params_A(SolutionSextuple(*coords))) == coords


def test_lattice_parametrization_substitution():
    # u = (1, 1, 1), r = (1, 4, 9), and the equal r = (1, 1, 1), whose v is 0
    assert _lattice_v(1, 1, 1, 1, 4, 9) == (9 - 4, 1 - 9, 4 - 1)
    v = _lattice_v(1, 1, 1, 1, 1, 1)
    assert v == (0, 0, 0)
    assert forward_map(TorsorTupleA(1, 1, 1, 1, *v, 1, 1, 1)) == (0, 0, 0, 1, 1, 1)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
       st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
def test_lattice_parameters_solve_bilinear_relation(u1, u2, u3, r1, r2, r3):
    v1, v2, v3 = _lattice_v(u1, u2, u3, r1, r2, r3)
    assert u1 * v1 + u2 * v2 + u3 * v3 == 0


# --- bijection and counters -------------------------------------------------


def test_bijection_small_boxes():
    assert verify_bijection(1)
    assert verify_bijection(5)


def test_forward_map_image_set_equals_oracle():
    # materialize the image of the lattice parametrization at P = 2, the
    # forward map written out, and compare against exhaustive enumeration
    P = 2
    from oracles import box_solutions

    images = set()
    for u in range(1, P + 1):
        for u1 in range(1, P // u + 1):
            for u2 in range(1, P // (u * u1) + 1):
                for u3 in range(1, min(P // (u * u1), P // (u * u2)) + 1):
                    for w1 in range(-P, P + 1):
                        for w2 in range(-P, P + 1):
                            for w3 in range(-P, P + 1):
                                if w1 == 0 or w2 == 0 or w3 == 0:
                                    continue
                                if not pairwise_conditions(u1, u2, u3, w1, w2, w3):
                                    continue
                                if u * u2 * u3 * abs(w1) > P or u * u1 * u3 * abs(w2) > P:
                                    continue
                                if u * u1 * u2 * abs(w3) > P:
                                    continue
                                y = (u * u2 * u3 * w1, u * u1 * u3 * w2, u * u1 * u2 * w3)
                                for r1 in range(1, u1 + 1):
                                    for r2 in range(-3 * P, 3 * P + 1):
                                        for r3 in range(-3 * P, 3 * P + 1):
                                            v1, v2, v3 = _lattice_v(u1, u2, u3, r1, r2, r3)
                                            x = (w1 * v1, w2 * v2, w3 * v3)
                                            if max(abs(c) for c in x) <= P:
                                                images.add(x + y)
    assert images == set(box_solutions(P))


def test_bijection_negative_control():
    assert not verify_bijection(5, drop_w_coprimality=True)


def test_descent_tuple_multiplicities_cover_every_y_triple():
    # each positive y-triple in the box has exactly one descent tuple, so the
    # multiplicities n (the admissible u per tuple) times the orbit sizes m
    # (the tuples each representative stands for) sum to P^3
    for P in range(1, 31):
        assert sum(n * m for n, m, *_ in _uw_tuples(P)) == P**3


@pytest.mark.parametrize("w_coprime", [True, False])
def test_orbit_representatives_expand_to_every_descent_tuple(w_coprime):
    # the distinct permutations of the pairs (u_j, w_j) of every representative
    # give each tuple of the brute-force list once, and their number is m
    for P in range(1, 21):
        expanded = Counter()
        for _, m, *uw in _uw_tuples(P, w_coprime):
            orbit = set(itertools.permutations(zip(uw[:3], uw[3:])))
            assert len(orbit) == m
            expanded.update(tuple(u for u, _ in o) + tuple(w for _, w in o) for o in orbit)
        oracle = Counter(descent_uw_tuples(P, w_coprime))
        assert expanded == oracle
        assert set(expanded.values()) == {1}


@pytest.mark.parametrize("P", [1, 2, 3, 5, 8, 12, 30])
def test_torsor_count_matches_naive(P):
    assert torsor_count_V(P).count == naive_count_V(P).count


@pytest.mark.parametrize(
    "P, expected",
    [
        (60, 302570112),  # naive_count_V(60), ROADMAP Baseline
        (100, 1866628352),  # naive_count_V(100), bench/expected.json
        (101, 1889121304),  # naive_count_V(101), bench/expected.json
    ],
)
def test_torsor_count_matches_pinned_naive_counts(P, expected):
    assert torsor_count_V(P).count == expected


def test_torsor_count_matches_the_scalar_oracle():
    # the array build and kernel against one scalar kernel call per
    # representative, at every box up to 40
    for P in range(1, 41):
        assert torsor_count_V(P).count == 8 * torsor_V_chunk(P)


@pytest.mark.parametrize("cap", [1, 5, 64])
def test_torsor_count_does_not_depend_on_the_chunk_size(monkeypatch, cap):
    # a cap of 1 makes every row its own slice, at every level
    expected = {P: torsor_count_V(P).count for P in (1, 7, 24)}
    monkeypatch.setattr(torsor, "_PLANE_CAP", cap)
    assert {P: torsor_count_V(P).count for P in expected} == expected


def test_coprime_table_matches_gcd():
    for P in (1, 2, 30, 97):
        w = np.arange(1, P + 1)
        assert np.array_equal(_coprime_table(P)[1:, 1:], np.gcd.outer(w, w) == 1)


def _unpack(R, key):
    """The (u1, u2, u3, q1, q2, q3) of a packed key of ``_w_chunks``: the
    digits u1, u2 base 64 over u3, R - q1, R - q2, R - q3 base R + 1."""
    key, d3 = divmod(key, R + 1)
    key, d2 = divmod(key, R + 1)
    key, d1 = divmod(key, R + 1)
    plane, u3 = divmod(key, R + 1)
    return (*divmod(plane, 64), u3, R - d1, R - d2, R - d3)


def _layer_M(R, T, k, terms=None):
    """Worker k's (row, run) layer of sum c_m V(m) over the terms m -> c_m
    (V(R) alone by default) out of T shares: M per (u1, u2, u3, q1, q2, q3),
    summed over the worker's blocks."""
    M = Counter()
    for keys, m in _w_chunks(R, terms or {R: 1}, _coprime_table(R), k, T):
        for key, value in zip(keys.tolist(), m.tolist()):
            M[_unpack(R, key)] += value
    return M


@pytest.mark.parametrize("cap", [3, 1 << 13])
def test_w_chunks_sum_the_scalar_orbit_sizes_per_key(monkeypatch, cap):
    # the (row, q3-run) counts against the orbit sizes of the scalar
    # representatives, summed per key, serially and in shares
    monkeypatch.setattr(torsor, "_PLANE_CAP", cap)
    for P in (1, 2, 9, 25, 45):
        oracle = Counter()
        for _, m, u1, u2, u3, w1, w2, w3 in _uw_tuples(P):
            oracle[u1, u2, u3, P // w1, P // w2, P // w3] += m
        for T in (1, 2, 3):
            shares = Counter()
            for k in range(T):
                shares.update(_layer_M(P, T, k))
            assert shares == oracle


@pytest.mark.parametrize("cap", [3, 1 << 13])
def test_w_chunks_sum_the_weighted_orbit_sizes_of_every_term_per_key(monkeypatch, cap):
    # every Moebius term c_m V(m) of N(R^3) in one build: per key, the sum of
    # c_m times the orbit sizes of V(m)'s scalar representatives, whose keys
    # q_j = m // w_j the terms share; a sum of 0 equals a missing key
    monkeypatch.setattr(torsor, "_PLANE_CAP", cap)
    for R in (9, 25, 45):
        terms = _moebius_weights(R)
        oracle = Counter()
        for m, c in terms.items():
            for _, orbit, u1, u2, u3, w1, w2, w3 in _uw_tuples(m):
                oracle[u1, u2, u3, m // w1, m // w2, m // w3] += c * orbit
        for T in (1, 2, 3):
            shares = Counter()
            for k in range(T):
                shares.update(_layer_M(R, T, k, terms))
            assert shares == oracle


def test_w_chunks_weigh_the_two_ties():
    # every representative of V(3) has u1 = u2 = 1: u = w = (1, 1, 1) (orbit
    # 1) is alone in its key; the other rows w1 = w2 = 1 have orbit 3, here
    # w3 = 2, 3 with u3 = 1, and w3 = 1, 3 and w3 = 1, 2 with u3 = 2, 3;
    # w = (1, 2, 3) alone counts 6
    assert _layer_M(3, 1, 0) == {
        (1, 1, 1, 3, 3, 3): 1,
        (1, 1, 1, 3, 3, 1): 3 + 3,
        (1, 1, 2, 3, 3, 3): 3,
        (1, 1, 2, 3, 3, 1): 3,
        (1, 1, 3, 3, 3, 3): 3,
        (1, 1, 3, 3, 3, 1): 3,
        (1, 1, 1, 3, 1, 1): 6,
    }


def test_inverses_invert_every_unit():
    n = 63  # isqrt(_MAX_TORSOR_BOUND)
    I = _inverses(n)
    for m in range(1, n + 1):
        for r in range(n + 1):
            assert I[m, r] == (pow(r, -1, m) if math.gcd(r, m) == 1 else 0)


# q_j = P // w_j: zero, small, and up to far apart in size
_q = st.one_of(st.just(0), st.integers(0, 6), st.integers(0, 4000))


def _kernel_columns(u1, u2, keys):
    """The int64 columns u1, u2, u3, q1, q2, q3 of one plane's keys
    (u3, q1, q2, q3), as the kernel takes them."""
    return np.array([(u1, u2, *key) for key in keys], dtype=np.int64).T


@st.composite
def lattice_keys(draw, q=_q):
    """Pairwise coprime u (u1 > 1 included) and q >= 0, one (u1, u2) with a
    list of (u3, q1, q2, q3)."""
    u1 = draw(st.integers(1, 12))
    u2 = draw(st.integers(1, 40).filter(lambda u: math.gcd(u1, u) == 1))
    u3 = st.integers(1, 200).filter(lambda u: math.gcd(u1 * u2, u) == 1)
    return u1, u2, draw(st.lists(st.tuples(u3, q, q, q), min_size=1, max_size=12))


@settings(max_examples=150)
@given(lattice_keys())
# u = (1, 1, 1), q2 = q3 = 1: the corners of the r2-r3 box reach |r3 - r2| = 2,
# so q1 = 2 is the first q1 at which the whole box counts
@example((1, 1, [(1, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)]))
@example((2, 3, [(5, 7, 3, 4), (7, 0, 9, 0), (11, 40, 2, 2)]))
def test_lattice_kernel_matches_the_scalar_kernel(drawn):
    u1, u2, keys = drawn
    K = _lattice_counts(*_kernel_columns(u1, u2, keys), _inverses(u1)).tolist()
    assert K == [r_pair_count(u1, u2, *key) for key in keys]


@settings(max_examples=100)
@given(lattice_keys(st.integers(0, 10)))
# u1 = 1 (every v3 gives an integer v1), every q_j = 0, and q2 far above q1
@example((1, 1, [(1, 0, 0, 0), (7, 0, 0, 0), (3, 1, 40, 2)]))
@example((5, 3, [(2, 0, 0, 0), (7, 1, 60, 3), (1, 0, 45, 9)]))
def test_lattice_kernel_counts_the_plane_points_by_brute_force(drawn):
    u1, u2, keys = drawn
    K = _lattice_counts(*_kernel_columns(u1, u2, keys), _inverses(u1)).tolist()
    assert K == [plane_point_count(u1, u2, *key) for key in keys]
    assert K == [r_pair_count(u1, u2, *key) for key in keys]


def test_lattice_kernel_holds_in_int64_at_the_largest_box():
    # extreme keys of P = _MAX_TORSOR_BOUND: u1 up to isqrt(P) = 63, u3 up to
    # P // u2, q_j up to P; r_pair_count works in Python ints
    P = torsor._MAX_TORSOR_BOUND
    qs = [(P, P, P), (P, 0, P), (0, P, P), (P, P, 0), (P, 1, P - 1), (1, P, 0)]
    for u1, u2, u3 in [(1, 1, P), (1, 2, P // 2 - 1), (47, 59, 67), (61, 62, 63), (63, 64, 61)]:
        keys = [(u3, *q) for q in qs]
        K = _lattice_counts(*_kernel_columns(u1, u2, keys), _inverses(u1)).tolist()
        assert K == [r_pair_count(u1, u2, *key) for key in keys]


_range_sums = st.tuples(
    st.integers(-30, 30),  # lo
    st.integers(-30, 30),  # hi, below lo for an empty range
    st.integers(-500, 500),  # alpha
    st.integers(-10**4, 10**4),  # beta
    st.integers(1, 60),  # m
)


@settings(max_examples=200)
@given(st.lists(_range_sums, min_size=1, max_size=20))
# an empty range (n = 0), hi below lo, m = 1, negative alpha and beta
@example([(0, -1, 3, 5, 7), (4, 2, -3, 1, 5), (-5, 5, -7, -11, 1), (3, 3, 0, -1, 2)])
def test_floor_sums_match_the_direct_sum(entries):
    lo, hi, alpha, beta, m = (np.array(col, dtype=np.int64) for col in zip(*entries))
    expected = [sum((a * v + b) // d for v in range(l, h + 1)) for l, h, a, b, d in entries]
    assert _floor_sums(lo, hi, alpha, beta, m).tolist() == expected


@settings(max_examples=200)
@given(
    st.tuples(*[st.integers(1, 12)] * 3).filter(lambda u: math.lcm(*u) == math.prod(u)),
    st.tuples(*[st.integers(0, 6)] * 3),
)
@example((1, 1, 1), (0, 0, 0))
@example((12, 5, 7), (6, 0, 3))
def test_lattice_runs_yield_every_lattice_point_once(u, q):
    (u1, u2, u3), (q1, q2, q3) = u, q
    # |r2| <= (q3 + u2 r1) / u1 <= q3 + u2 <= 18, and |r3| likewise
    r1, r2, r3 = np.meshgrid(np.arange(1, u1 + 1), *[np.arange(-20, 21)] * 2, indexing="ij")
    inside = (abs(u1 * r2 - u2 * r1) <= q3) & (abs(u3 * r1 - u1 * r3) <= q2)
    inside &= abs(u2 * r3 - u3 * r2) <= q1
    runs = list(_lattice_runs(u1, u2, u3, q1, q2, q3))
    assert all(1 in (len(r2s), len(r3s)) for _, r2s, r3s in runs)
    points = [(s, *p) for s, r2s, r3s in runs for p in itertools.product(r2s, r3s)]
    assert len(set(points)) == len(points)
    assert set(points) == set(zip(*(x[inside].tolist() for x in (r1, r2, r3))))


def test_torsor_counters_enforce_the_int64_bound_before_any_work(monkeypatch):
    # the bound sits below the largest P with P^3 (2P+1)^2 < 2^63, the
    # proven ceiling of every chunk sum
    P = torsor._MAX_TORSOR_BOUND
    assert P**3 * (2 * P + 1) ** 2 < 2**63

    def no_work(*args, **kwargs):
        raise AssertionError("work started above the int64 bound")

    monkeypatch.setattr(torsor, "_run_partitioned", no_work)
    monkeypatch.setattr(torsor, "_moebius_weights", no_work)
    with pytest.raises(OverflowError):
        torsor_count_V(P + 1)
    with pytest.raises(OverflowError):
        torsor_count_N((P + 1) ** 3)
    # the bound itself passes the check, whatever box the naive counter holds
    monkeypatch.setattr(torsor, "_run_partitioned", lambda share, threads, cells, worker_cells: 0)
    assert torsor_count_V(P).count == 0


def test_the_moebius_sums_hold_in_int64_at_the_largest_box():
    # a key's n and K do not depend on its term, so the |n M K| of a Moebius
    # count add up to at most sum |c_m| m^3 (2m+1)^2 (``_MAX_TORSOR_BOUND``)
    R = torsor._MAX_TORSOR_BOUND
    assert sum(abs(c) * m**3 * (2 * m + 1) ** 2 for m, c in _moebius_weights(R).items()) < 2**63


def test_torsor_V_shares_add_up():
    # worker k of T takes the (u3, P // w1) groups of each plane that the
    # snake deals it; at the small boxes some workers get no group at all
    for P in range(1, 41):
        whole = _torsor_V_chunk(P, 0, 1)
        for T in range(1, 5):
            assert sum(_torsor_V_chunk(P, k, T) for k in range(T)) == whole


@pytest.mark.parametrize("B", [1, 7, 8, 26, 27, 64, 100, 1000, 12345, 15625])
def test_torsor_primitive_count_matches_naive(B):
    assert torsor_count_N(B).count == count_N(B).count


@pytest.fixture(scope="module")
def naive_N_at_the_cubes():
    """count_N at r^3 - 1 and r^3 for every r <= 30."""
    return {B: count_N(B).count for r in range(1, 31) for B in (r**3 - 1, r**3) if B}


@pytest.mark.parametrize("cap", [1, 5, 64])
def test_torsor_primitive_shares_match_naive_at_every_cube(monkeypatch, naive_N_at_the_cubes, cap):
    # all Moebius terms of N(B) in one build, serially and in shares, with
    # slices and merges from one row (cap 1) up; floor(B^(1/3)) steps at r^3
    monkeypatch.setattr(torsor, "_PLANE_CAP", cap)
    for B, expected in naive_N_at_the_cubes.items():
        R = integer_cube_root(B)
        terms = _moebius_weights(R)
        for T in (1, 2, 3):
            assert 8 * sum(torsor._torsor_V_chunk(R, k, T, terms) for k in range(T)) == 2 * expected


def test_torsor_primitive_count_merges_the_keys_of_its_terms(monkeypatch):
    # N(27000) = sum c_m V(m) over 8 terms: counted one term at a time, the
    # kernel took 1,779 keys, the sum of each term's distinct keys; the terms
    # share 1,677 distinct keys in all, and their counts fit in one merge,
    # so each of these reaches the kernel once
    seen, _ = _kernel_calls(monkeypatch)
    assert torsor_count_N(27000).count == 11217988
    terms = _moebius_weights(30)
    assert sum(len(_distinct_keys_of(m)) for m in terms) == 1779
    shared = set().union(*map(_distinct_keys_of, terms))
    assert len(shared) == 1677
    assert sum(seen.values()) <= 1779
    assert set(seen) == shared and set(seen.values()) == {1}


# Every counter that splits its work over worker processes, at two bounds.
# At these bounds no count is worth a pool, so the tests that deal them out
# set the cells that pay for a worker to 0.  The naive counters deal out y1
# in snake order, so at the lower bound, radius 3, each of 3 workers gets one
# y1.  The torsor counters deal out each plane's (u3, P // w1) groups in
# snake order: V(3) has three groups with tuples, groups 0, 2 and 3 of its
# one plane, and V(1) one, so at the lower bounds some workers get none.  The
# height counters work on the box of radius floor(B^(1/3)).
_PARTITIONED = [
    ("naive_count_V", naive_count_V, 3, 6),
    ("count_N", count_N, 27, 216),
    ("torsor_count_V", torsor_count_V, 3, 8),
    ("torsor_count_N", torsor_count_N, 27, 216),
    ("mobius_check", mobius_check, 27, 1000),
]


def _result(counter, bound, threads):
    # the counters return a CountReport, mobius_check its whole ladder
    out = counter(bound, threads=threads)
    return out.count if isinstance(out, CountReport) else out


@pytest.mark.parametrize(
    "counter, bound",
    [
        pytest.param(counter, bound, id=f"{name}-{bound}")
        for name, counter, below, above in _PARTITIONED
        for bound in (below, above)
    ],
)
def test_thread_partitioning_is_count_neutral(monkeypatch, pools_opened, counter, bound):
    monkeypatch.setattr(cubic, "_NAIVE_WORKER_CELLS", 0)
    monkeypatch.setattr(torsor, "_DESCENT_WORKER_CELLS", 0)
    serial = _result(counter, bound, 1)
    assert _result(counter, bound, 2) == serial
    assert _result(counter, bound, 3) == serial
    assert len(pools_opened) == 2


@pytest.mark.parametrize(
    "counter, bound",
    [pytest.param(counter, above, id=name) for name, counter, _, above in _PARTITIONED],
)
def test_no_workers_is_an_error(counter, bound):
    # zero workers would otherwise deal out no jobs and count 0
    with pytest.raises(ValueError, match="threads must be >= 1"):
        counter(bound, threads=0)


@pytest.mark.parametrize("P", range(1, 61))
def test_aggregated_shares_match_the_scalar_oracle(P):
    # one scalar kernel call per representative, against the kernel run
    # once per distinct key, serially and in shares
    expected = torsor_V_chunk(P)
    for T in (1, 2, 3):
        assert sum(_torsor_V_chunk(P, k, T) for k in range(T)) == expected


@pytest.mark.parametrize("cap", [1, 5, 64])
def test_aggregated_shares_do_not_depend_on_the_cap(monkeypatch, cap):
    # small caps flush the final keys after almost every chunk, while the
    # open (u3, q1) group carries over
    expected = {P: torsor_V_chunk(P) for P in (1, 7, 24)}
    monkeypatch.setattr(torsor, "_PLANE_CAP", cap)
    for P, value in expected.items():
        for T in (1, 2, 3):
            assert sum(_torsor_V_chunk(P, k, T) for k in range(T)) == value


def _kernel_calls(monkeypatch):
    """The keys (u1, u2, u3, q1, q2, q3) the lattice kernel counts, with
    their multiplicities, and the size of each call, as calls come in."""
    seen, sizes = Counter(), []
    kernel = torsor._lattice_counts

    def recording(u1, u2, u3, q1, q2, q3, inv):
        sizes.append(len(u3))
        seen.update(zip(*(x.tolist() for x in (u1, u2, u3, q1, q2, q3))))
        return kernel(u1, u2, u3, q1, q2, q3, inv)

    monkeypatch.setattr(torsor, "_lattice_counts", recording)
    return seen, sizes


def _distinct_keys_of(P):
    return {(u1, u2, u3, P // w1, P // w2, P // w3) for _, _, u1, u2, u3, w1, w2, w3 in _uw_tuples(P)}


@pytest.mark.parametrize("cap", [5, 1 << 13])
def test_the_kernel_sees_each_distinct_key_once(monkeypatch, cap):
    # the keys of consecutive planes fill each call up to a quarter of the cap
    monkeypatch.setattr(torsor, "_PLANE_CAP", cap)
    seen, sizes = _kernel_calls(monkeypatch)
    P = 45
    _torsor_V_chunk(P, 0, 1)
    assert set(seen) == _distinct_keys_of(P) and set(seen.values()) == {1}
    size = (cap + 3) // 4
    assert all(n == size for n in sizes[:-1]) and 0 < sizes[-1] <= size <= cap


@pytest.mark.parametrize("P", [45, 100])
@pytest.mark.parametrize("cap", [5, 64, 1 << 13])
def test_the_open_keys_stay_below_a_call_and_a_group(monkeypatch, P, cap):
    # the count is right wherever the merge cuts, so a cut that closed too
    # little would show only as open keys growing with the box: they must
    # stay below a kernel call plus one (u3, P // w1) group, at most q^2 keys
    # for the q distinct P // w
    monkeypatch.setattr(torsor, "_PLANE_CAP", cap)
    open_keys, merge = [], torsor._distinct_keys

    def recording(blocks):
        open_keys.append(len(blocks[0][0]))
        return merge(blocks)

    monkeypatch.setattr(torsor, "_distinct_keys", recording)
    _torsor_V_chunk(P, 0, 1)
    q = len({P // w for w in range(1, P + 1)})
    assert max(open_keys) < (cap + 3) // 4 + q**2


@pytest.mark.parametrize("T", [2, 3])
def test_each_distinct_key_reaches_the_kernel_in_one_share(monkeypatch, T):
    # a key fixes its (u3, P // w1) group, and a group falls to one share,
    # however small the slices that split its rows
    monkeypatch.setattr(torsor, "_PLANE_CAP", 5)
    seen, _ = _kernel_calls(monkeypatch)
    P = 45
    for k in range(T):
        _torsor_V_chunk(P, k, T)
    assert set(seen) == _distinct_keys_of(P) and set(seen.values()) == {1}


def test_torsor_count_V_300_is_pinned():
    assert torsor_count_V(300).count == 88_832_063_040


def test_the_group_deal_is_a_snake():
    # share k of T takes the (u3, P // w1) groups k or 2T - 1 - k (mod 2T) of
    # each plane, numbered in row order: at T = 3 the rounds go 0 1 2 2 1 0.
    # In the plane u1 = u2 = 1 of V(8) the rows (u3, w1) have u3 <= 8 and
    # w1 <= 8 // u3; groups 8 and 10, (u3, P // w1) = (3, 4) and (4, 4), hold
    # no tuple, since their one row forces w2 = w1 = 2
    P, T = 8, 3
    rows = [(u3, P // w1) for u3 in range(1, P + 1) for w1 in range(1, P // u3 + 1)]
    groups = list(dict.fromkeys(rows))
    taken = {
        k: sorted({groups.index(key[2:4]) for key in _layer_M(P, T, k) if key[:2] == (1, 1)})
        for k in range(T)
    }
    assert taken == {0: [0, 5, 6, 11, 12], 1: [1, 4, 7, 13], 2: [2, 3, 9, 14]}
    # so every worker gets a group
    assert [_torsor_V_chunk(P, k, T) > 0 for k in range(T)] == [True] * T


@pytest.fixture
def pools_opened(monkeypatch):
    """The pools the partitioner opens, counted at cubic.ProcessPoolExecutor."""
    opened = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(cubic, "ProcessPoolExecutor", CountingPool)
    return opened


@pytest.mark.parametrize(
    "counter, bound, expected",
    [(torsor_count_N, 27000, 11217988), (torsor_count_V, 100, 1866628352)],
)
def test_a_counter_call_opens_one_pool(monkeypatch, pools_opened, counter, bound, expected):
    # with no cells needed to pay for a worker both counts are above the
    # cost line, and N(27000) deals all its eight Moebius terms to the jobs
    # of one pool (below the line they open none: ``test_the_cost_line``);
    # the counts are the naive pins of bench/expected.json
    monkeypatch.setattr(torsor, "_DESCENT_WORKER_CELLS", 0)
    assert counter(bound, threads=2).count == expected
    assert len(pools_opened) == 1


@pytest.mark.parametrize("T", [2, 3])
def test_a_pooled_moebius_count_submits_one_job_per_share(monkeypatch, T):
    # all eight Moebius terms of N(27000) go to each share: T jobs, not 8 T;
    # the stand-in pool runs each job as it is submitted
    jobs = []

    class InlinePool:
        def __init__(self, max_workers):
            assert max_workers == T

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, share, *args):
            jobs.append(args)
            future = Future()
            future.set_result(share(*args))
            return future

    monkeypatch.setattr(torsor, "_DESCENT_WORKER_CELLS", 0)
    monkeypatch.setattr(cubic, "ProcessPoolExecutor", InlinePool)
    assert torsor_count_N(27000, threads=T).count == 11217988
    assert jobs == [(k, T) for k in range(T)]


class _PoolReached(Exception):
    pass


@pytest.mark.parametrize(
    "count, pool",
    [
        (lambda: torsor_count_N(27000, threads=2), False),
        (lambda: torsor_count_V(100, threads=2), False),
        (lambda: torsor_count_V(200, threads=2), False),
        (lambda: torsor_count_V(300, threads=2), True),
        (lambda: torsor_count_N(10**9, threads=2), True),
        (lambda: mobius_check(8000, threads=2), False),
        (lambda: mobius_check(64000, threads=2), False),
        (lambda: mobius_check(216000, threads=2), True),
        (lambda: count_N(64000, threads=2), False),
        (lambda: count_N(216000, threads=2), True),
        # the naive line at two workers, which all three naive counters
        # share, lies between R = 47 and R = 48
        (lambda: count_N(47**3, threads=2), False),
        (lambda: count_N(48**3, threads=2), True),
        # the line scales with the workers: 300^3 <= 3 x 9,375,000 cells
        (lambda: torsor_count_V(300, threads=3), False),
        (lambda: torsor_count_N(10**9, threads=3), True),
    ],
    ids=[
        "N(27000)",
        "V(100)",
        "V(200)",
        "V(300)",
        "N(10^9)",
        "mobius_check(8000)",
        "mobius_check(64000)",
        "mobius_check(216000)",
        "count_N(64000)",
        "count_N(216000)",
        "count_N(47^3)",
        "count_N(48^3)",
        "V(300)-T3",
        "N(10^9)-T3",
    ],
)
def test_the_cost_line(monkeypatch, count, pool):
    # a pool constructor that raises stops a count above the line before any
    # work, and one below the line never reaches it
    def raising(*args, **kwargs):
        raise _PoolReached

    monkeypatch.setattr(cubic, "ProcessPoolExecutor", raising)
    if pool:
        with pytest.raises(_PoolReached):
            count()
    else:
        count()


@pytest.mark.parametrize(
    "counter, bound",
    [pytest.param(counter, above, id=name) for name, counter, _, above in _PARTITIONED],
)
def test_one_thread_opens_no_pool(pools_opened, counter, bound):
    counter(bound, threads=1)
    assert pools_opened == []


# --- lifts ------------------------------------------------------------------


def test_lift_examples():
    lifted = lift_to_X(SolutionSextuple(0, 0, 0, 1, 1, 1))
    assert lifted.Y == (1, 1, 1) and lifted.Z == (1, 1, 1)
    lift_to_X(SolutionSextuple(1, -1, 0, 1, 1, 1))  # constructor checks x.Z = 0


def test_lift_all_small_solutions():
    for coords in solutions_via_x3(5):
        s = SolutionSextuple(*coords)
        lifted = lift_to_X(s)
        t = solution_to_params_A(s)
        expected = t.u1 * t.u2 * t.u3 * t.w1 * t.w2 * t.w3
        assert all(lifted.Y[i] * lifted.Z[i] == expected for i in range(3))


def test_tri_projective_point_validates():
    with pytest.raises(ValueError):
        TriProjectivePoint(x=(1, 0, 0), y=(0, 0, 1), Y=(1, 1, 1), Z=(1, 1, 1))


def test_lifts_of_scalar_multiples_agree_projectively():
    def proportional(a, b):
        return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))

    def same_point(p, q):
        # blockwise equality up to scalars: the coordinates are projective
        return (
            proportional(p.x + p.y, q.x + q.y)
            and proportional(p.Y, q.Y)
            and proportional(p.Z, q.Z)
        )

    a = lift_to_X(SolutionSextuple(0, 0, 0, 1, 1, 1))
    b = lift_to_X(SolutionSextuple(0, 0, 0, 2, 2, 2))
    assert same_point(a, b)
    c = lift_to_X(SolutionSextuple(1, -1, 0, 1, 1, 1))
    d = lift_to_X(SolutionSextuple(3, -3, 0, 3, 3, 3))
    assert same_point(c, d)
    assert not same_point(a, c)


# --- coprimality equivalence -------------------------------------------------


def monomial_gcd_condition(u1, u2, u3, w1, w2, w3) -> bool:
    """gcd of the six torsor monomials u_i u_k w_j w_k over all permutations
    (i, j, k) of (1, 2, 3) equals 1; the paper's lemma makes this equivalent
    to the pairwise conditions."""
    us = {1: u1, 2: u2, 3: u3}
    ws = {1: w1, 2: w2, 3: w3}
    g = 0
    for i, j, k in itertools.permutations((1, 2, 3)):
        g = math.gcd(g, us[i] * us[k] * ws[j] * ws[k])
    return g == 1


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30),
       st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
def test_monomial_gcd_equivalent_to_pairwise(u1, u2, u3, w1, w2, w3):
    assert monomial_gcd_condition(u1, u2, u3, w1, w2, w3) == pairwise_conditions(
        u1, u2, u3, w1, w2, w3
    )


# --- finite fields ------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_descent_scheme_point_counts(p):
    assert count_O_Fp(p) == (p - 1) ** 5 * (p * p + p + 1) * (p * p + 4 * p + 1)


def test_descent_scheme_examples():
    assert count_O_Fp(2) == 91
    assert count_O_Fp(3) == 9152


@pytest.mark.parametrize("p", [2, 3])
def test_resolved_variety_point_counts(p):
    assert count_X_Fp(p) == (p * p + p + 1) * (p * p + 4 * p + 1)


@pytest.mark.parametrize("p", [2, 3])
def test_torus_orbit_ratio(p):
    assert count_O_Fp(p) == (p - 1) ** 5 * count_X_Fp(p)


def test_fp_counters_reject_bad_p():
    with pytest.raises(ValueError):
        count_O_Fp(4)
    with pytest.raises(ValueError):
        count_O_Fp(37)
    with pytest.raises(ValueError):
        count_X_Fp(11)
