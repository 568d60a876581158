"""Berezin-Toeplitz and geometric quantization on P^1 with the Fubini-Study
quantum bundle."""

from .chart import (
    GradientUnavailableError,
    SmoothFunction,
    poisson,
    poisson_function,
    standard_family,
)
from .quadrature import (
    InsufficientResolutionError,
    QuadratureRule,
    build_quadrature,
)
from .sections import SectionBasis
from .operators import (
    OperatorMatrix,
    geom_quant,
    op_norm,
    toeplitz,
    tuynman_residual,
)
from .asymptotics import (
    ConvergenceTable,
    dirac_residual,
    dirac_table,
    doubling_levels,
    fit_loglog_slope,
    norm_asymptotics,
    product_residual,
    product_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
