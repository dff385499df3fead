"""Exact point counting on the senary cubic x1*y2*y3 + x2*y1*y3 + x3*y1*y2 = 0.

The package provides two independent exact counters for integer points of
bounded height (a naive box enumerator and a descent-parametrization counter),
the descent bijections themselves, coprimality-graph Dirichlet series, and the
numeric constants entering the predicted leading coefficient of the counting
function (polytope volume, archimedean density, local densities, Euler
products), with cross-checks tying all of them together.
"""

import os

# OpenBLAS's helper thread spins 2^28 cycles before it sleeps, burning a core
# while numpy idles; 2^4 sleeps at once and, unlike OPENBLAS_NUM_THREADS=1,
# keeps truncated_DG's 2-thread einsum.  Set before numpy loads; a caller's
# value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
