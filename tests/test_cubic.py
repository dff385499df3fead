import itertools

import numpy as np
import pytest
from oracles import (
    box_solutions,
    exhaustive_primitive_pairs,
    exhaustive_V,
    solutions_via_x3,
)
from senary.cubic import (
    _count_all,
    _count_by_height,
    _count_chunk,
    _count_primitive,
    _moebius_weights,
    _naive_cells,
    _nonprimitive,
    _octant_cells,
    CountReport,
    SolutionSextuple,
    count_N,
    cubic_form,
    iter_box_solutions,
    mobius_check,
    naive_count_V,
)

# values computed with the exhaustive oracle below before the main build
V1, V2 = 56, 928
N_BOX1, N_BOX2 = 28, 436


def test_is_solution_examples():
    assert cubic_form(0, 0, 0, 1, 1, 1) == 0
    assert cubic_form(1, -1, 0, 1, 1, 1) == 0
    assert cubic_form(1, 1, 1, 1, 1, 1) != 0


def test_sextuple_validates():
    with pytest.raises(ValueError):
        SolutionSextuple(1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        SolutionSextuple(0, 0, 0, 0, 0, 0)
    assert SolutionSextuple(0, 0, 0, 1, 1, 1).is_degenerate is False
    assert SolutionSextuple(0, 1, -1, 0, 1, 1).is_degenerate is True


def test_count_report_validates():
    with pytest.raises(ValueError):
        CountReport(1, "unknown-method", 0, 0.0)
    with pytest.raises(ValueError):
        CountReport(1, "naive", -1, 0.0)


def test_exhaustive_oracle_matches_frozen_values():
    assert exhaustive_V(1) == V1
    assert exhaustive_V(2) == V2


def test_naive_count_against_exhaustive_oracle():
    assert naive_count_V(1).count == V1
    assert naive_count_V(2).count == V2


def test_including_degenerate_locus_grows_count():
    with_degenerate = len(box_solutions(1, include_degenerate=True))
    assert with_degenerate > V1


def test_naive_count_rejects_bad_bounds():
    with pytest.raises(ValueError):
        naive_count_V(0)
    with pytest.raises(OverflowError):
        naive_count_V(2_000_000)


def test_count_N_small_heights():
    assert exhaustive_primitive_pairs(1) == N_BOX1
    assert count_N(1).count == N_BOX1
    assert count_N(7).count == N_BOX1  # floor(7^(1/3)) == 1
    assert exhaustive_primitive_pairs(2) == N_BOX2
    assert count_N(8).count == N_BOX2


def test_mobius_check_small():
    for B, R in ((1, 1), (27, 3), (1000, 10), (1330, 10)):
        ladder = mobius_check(B)
        assert [b for b, _, _ in ladder] == [r**3 for r in range(1, R + 1)]
        assert all(ok is True and diff == 0 for _, ok, diff in ladder)


def test_height_bins_match_the_oracles():
    # a cell of height c owns r // m solutions of height at most r once
    # c <= r; the last row bins the non-primitive solutions by height
    R = 12
    bins = _count_chunk(_count_by_height, R, 0, 1).tolist()
    assert len(bins) == R + 2 and all(len(row) == R + 1 for row in bins)
    for r in range(1, R + 1):
        V = 8 * sum(bins[c][m] * (r // m) for c in range(r + 1) for m in range(1, R + 1))
        assert V == naive_count_V(r).count
        assert V - 8 * sum(bins[R + 1][: r + 1]) == 2 * count_N(r**3).count


@pytest.mark.parametrize(
    "count",
    [_count_all, _count_primitive, _count_by_height],
    ids=["naive_count_V", "count_N", "mobius_check"],
)
def test_snake_shares_sum_to_the_serial_pass(count):
    # the shares of naive_count_V, count_N and mobius_check at threads = 3,
    # dealt in snake order: two strides of 2T per worker
    R = 12
    shares = [_count_chunk(count, R, k, 3) for k in range(3)]
    assert np.array_equal(sum(shares), _count_chunk(count, R, 0, 1))


def test_the_y1_deal_is_a_snake():
    # worker k of T takes y1 - 1 = k or 2T - 1 - k (mod 2T): at T = 3 the
    # rounds go 0 1 2 2 1 0, and each y1 goes to exactly one worker
    R, T = 14, 3
    taken = {}
    for k in range(T):
        share = _count_chunk(lambda P, y1, *_: np.bincount([y1], minlength=R + 1), R, k, T)
        taken[k] = np.flatnonzero(share).tolist()
    assert taken == {0: [1, 6, 7, 12, 13], 1: [2, 5, 8, 11, 14], 2: [3, 4, 9, 10]}


def _laid_out(P, y1, y2, x1, x2, m):
    """Every solution of the cells as arrays (cell index, t, y3, x3), from
    the progression y3 = t * y1*y2 // g, x3 = -t * base // g, by plain numpy
    gcds rather than the kernel's table."""
    n = P // m
    j = np.repeat(np.arange(len(m)), n)
    t = np.arange(1, len(j) + 1) - np.repeat(np.cumsum(n) - n, n)
    base = x1[j] * y2[j] + x2[j] * y1
    g = np.gcd(base, y1 * y2[j])
    return j, t, t * (y1 * y2[j] // g), -t * (base // g)


def test_each_plane_matches_the_exhaustive_oracle():
    # per laid-out (y1, y2) plane: its solutions, unfolded by x -> -x where
    # x1 > 0 and by the 1 <-> 2 swap where y1 < y2, are the box solutions
    # with y3 >= 1 of all P^2 planes, and the cells' weighted sum of P // m
    # counts them
    sols = box_solutions(6)
    for P in range(1, 7):
        octant = {s for s in sols if s[3] > 0 and s[4] > 0 and s[5] > 0 and max(map(abs, s)) <= P}
        planes = {}
        for y1, y2, x1, x2, m in _octant_cells(P, range(1, P + 1)):
            for b in np.unique(y2).tolist():
                plane = y2 == b
                cells = (y1, y2[plane], x1[plane], x2[plane], m[plane])
                j, t, y3, x3 = _laid_out(P, *cells)
                laid = set(zip(x1[plane][j].tolist(), x2[plane][j].tolist(), x3.tolist(), y3.tolist()))
                assert len(laid) == len(t) and min(a1 for a1, *_ in laid) == 0 and y1 <= b
                laid |= {(-a1, -a2, -a3, c) for a1, a2, a3, c in laid if a1 > 0}
                planes[y1, b] = laid
                if y1 < b:
                    planes[b, y1] = {(a2, a1, a3, c) for a1, a2, a3, c in laid}
                assert len(laid) * (1 + (y1 < b)) == _count_all(P, *cells)
        assert len(planes) == P * P
        for (y1, y2), laid in planes.items():
            oracle = {(s[0], s[1], s[2], s[5]) for s in octant if s[3] == y1 and s[4] == y2}
            assert laid == oracle


def test_the_cost_estimate_counts_the_cells_laid_out(monkeypatch):
    # the kernel passes every cell it lays out to np.flatnonzero once, so
    # the sizes it passes are the cells the cost line counts
    sizes = []

    def flatnonzero(a):
        sizes.append(a.size)
        return np.ravel(a).nonzero()[0]

    monkeypatch.setattr(np, "flatnonzero", flatnonzero)
    for P in range(1, 13):
        sizes.clear()
        for _ in _octant_cells(P, range(1, P + 1)):
            pass
        assert sum(sizes) == _naive_cells(P)


def test_primitivity_is_the_gcd_of_t_and_the_cell():
    # (y3, x3) / t is coprime, so solution t of a cell has six-coordinate
    # gcd gcd(t, d), d = gcd(x1, x2, y1, y2); _nonprimitive lays out exactly
    # the solutions where that is above 1
    for R in range(1, 21):
        for y1, y2, x1, x2, m in _octant_cells(R, range(1, R + 1)):
            j, t, y3, x3 = _laid_out(R, y1, y2, x1, x2, m)
            six = np.gcd.reduce([x1[j], x2[j], x3, np.full_like(j, y1), y2[j], y3])
            d = np.gcd.reduce([x1[j], x2[j], np.full_like(j, y1), y2[j]])
            assert np.array_equal(six, np.gcd(t, d))
            cells, ts = _nonprimitive(R, y1, y2, x1, x2, m)
            assert np.array_equal(cells, j[six > 1]) and np.array_equal(ts, t[six > 1])


def test_mobius_ladder_matches_the_per_radius_check():
    ladder = mobius_check(12**3)
    for r, entry in enumerate(ladder, start=1):
        lhs = 2 * count_N(r**3).count
        rhs = sum(c * naive_count_V(m).count for m, c in _moebius_weights(r).items())
        assert entry == (r**3, lhs == rhs, lhs - rhs)


def test_mobius_check_rejects_bad_bounds():
    with pytest.raises(ValueError, match="^height bound must be >= 1$"):
        mobius_check(0)
    with pytest.raises(OverflowError):
        mobius_check(2_000_000**3)


def test_permutation_symmetry_of_box_solutions():
    sols = set(box_solutions(2))
    for perm in itertools.permutations(range(3)):
        permuted = {
            (t[perm[0]], t[perm[1]], t[perm[2]], t[3 + perm[0]], t[3 + perm[1]], t[3 + perm[2]])
            for t in sols
        }
        assert permuted == sols


@pytest.mark.parametrize("P", range(1, 9))
def test_iter_box_solutions_matches_x3_oracle(P):
    sols = list(iter_box_solutions(P))
    assert len(sols) == len(set(sols)) == naive_count_V(P).count
    assert set(sols) == set(solutions_via_x3(P))


def test_sign_symmetry_divisibility_by_8():
    for P in range(1, 7):
        assert naive_count_V(P).count % 8 == 0
