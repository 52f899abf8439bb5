"""Exact p-adic entropy of principal algebraic actions.

Three independently computed routes to the same number:

* normalized fixed-point counts over finite quotient families (exact
  integer determinants of regular representations),
* the trace-logarithm determinant on units of the p-adic convolution
  algebra, evaluated by a truncated series with certified precision,
* for one variable, the Newton-polygon / slope-factorization form of the
  p-adic Mahler measure.

All arithmetic is exact; every p-adic value carries the precision actually
proven by the computation.
"""

from .entropy import ConvergenceReport, convergence_report, entropy_sequence
from .detlog import (
    UnitDecomposition,
    c0_unit_normalize,
    det_laurent_matrix,
    logdet_finite,
    logdet_unit,
    tr_log_one_unit,
)
from .fixcount import FixCountRecord, det_exact, fix_count, fix_count_char_crt, quotient_det
from .groupring import (
    FiniteGroupRingElem,
    HeisenbergQuotient,
    LaurentPoly,
    RingMatrix,
    ZdQuotient,
    build_quotient_group,
    diagonal_family,
    heisenberg_family,
    reduce_to_quotient,
    rho_matrix,
    sup_norm,
)
from .mahler import NewtonPolygon, mahler_1d, newton_polygon, slope_split
from .padic import Padic, padic_log, series_guard
from .poly_io import parse_poly, print_poly

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "FiniteGroupRingElem",
    "FixCountRecord",
    "HeisenbergQuotient",
    "LaurentPoly",
    "NewtonPolygon",
    "Padic",
    "RingMatrix",
    "UnitDecomposition",
    "ZdQuotient",
    "build_quotient_group",
    "c0_unit_normalize",
    "convergence_report",
    "det_exact",
    "det_laurent_matrix",
    "diagonal_family",
    "entropy_sequence",
    "fix_count",
    "fix_count_char_crt",
    "heisenberg_family",
    "logdet_finite",
    "logdet_unit",
    "mahler_1d",
    "newton_polygon",
    "padic_log",
    "parse_poly",
    "print_poly",
    "quotient_det",
    "reduce_to_quotient",
    "rho_matrix",
    "series_guard",
    "slope_split",
    "sup_norm",
    "tr_log_one_unit",
]
