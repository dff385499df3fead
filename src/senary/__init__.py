"""Exact point counting on the senary cubic x1*y2*y3 + x2*y1*y3 + x3*y1*y2 = 0.

The package provides two independent exact counters for integer points of
bounded height (a naive box enumerator and a descent-parametrization counter),
the descent bijections themselves, coprimality-graph Dirichlet series, and the
numeric constants entering the predicted leading coefficient of the counting
function (polytope volume, archimedean density, local densities, Euler
products), with cross-checks tying all of them together.
"""

from senary.arith import Rational, gcd_many, moebius, primes_up_to, integer_cube_root
from senary.cubic import (
    SolutionSextuple,
    CountReport,
    is_solution,
    naive_count_V,
    count_N,
    mobius_check,
    group_compose,
    count_degenerate,
    slice_count,
    iter_box_solutions,
)
from senary.torsor import (
    TorsorTupleA,
    TorsorTupleB,
    PrimitiveTorsorTuple,
    TriProjectivePoint,
    params_to_solution_A,
    solution_to_params_A,
    params_to_solution_B,
    verify_bijection,
    torsor_count_V,
    torsor_count_N,
    lift_to_X,
    count_O_Fp,
    count_X_Fp,
)
from senary.graphs import (
    CoprimalityGraph,
    SubsetPolynomial,
    BVector,
    SENARY_GRAPH,
    vertex_set,
    sg_polynomial,
    b_coefficients,
    euler_factor,
    euler_factor_exact,
    xi,
    truncated_DG,
    verify_theorem3,
    tg_series_check,
)
from senary.peyre import (
    HPolytope,
    ConstantReport,
    QuadratureNonconvergence,
    polytope_volume,
    alpha_invariant,
    archimedean_density,
    local_density,
    factor_identity_check,
    peyre_theta,
    leading_coeff_V,
    consistency_V_to_N,
)

__all__ = [name for name in dir() if not name.startswith("_")]
