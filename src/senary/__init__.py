"""Exact point counting on the senary cubic x1*y2*y3 + x2*y1*y3 + x3*y1*y2 = 0.

The package provides two independent exact counters for integer points of
bounded height (a naive box enumerator and a descent-parametrization counter),
the descent bijections themselves, coprimality-graph Dirichlet series, and the
numeric constants entering the predicted leading coefficient of the counting
function (polytope volume, archimedean density, local densities, Euler
products), with cross-checks tying all of them together.
"""
