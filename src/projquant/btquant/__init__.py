"""Berezin-Toeplitz and geometric quantization on P^1 with the Fubini-Study
quantum bundle, on a product quadrature rule with numpy.

This route (``quadrature``, ``sections``, ``chart``, ``operators``,
``asymptotics``) assembles any SmoothFunction, values-only ones included, and
is the independent reference for ``projquant.bands``, which takes polynomial
symbols to exact Beta-integral bands in Python floats; the command line runs
on the bands.  Importing this package loads numpy and all five modules.
"""

from ..bands import ConvergenceTable, doubling_levels, fit_loglog_slope
from .asymptotics import (dirac_residual, dirac_table, norm_asymptotics, product_residual,
                          product_table)
from .chart import (GradientUnavailableError, SmoothFunction, poisson, poisson_function,
                    standard_family)
from .operators import OperatorMatrix, geom_quant, op_norm, toeplitz, tuynman_residual
from .quadrature import InsufficientResolutionError, QuadratureRule, build_quadrature
from .sections import SectionBasis

__all__ = [
    "ConvergenceTable", "GradientUnavailableError", "InsufficientResolutionError",
    "OperatorMatrix", "QuadratureRule", "SectionBasis", "SmoothFunction", "asymptotics",
    "build_quadrature", "chart", "dirac_residual", "dirac_table", "doubling_levels",
    "fit_loglog_slope", "geom_quant", "norm_asymptotics", "op_norm", "operators",
    "poisson", "poisson_function", "product_residual", "product_table", "quadrature",
    "sections", "standard_family", "toeplitz", "tuynman_residual",
]
