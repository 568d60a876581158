"""Berezin-Toeplitz and geometric quantization on P^1 with the Fubini-Study
quantum bundle."""

from .chart import (
    GradientUnavailableError,
    SmoothFunction,
    chart_change_residual,
    curvature_residual,
    hamiltonian_vf,
    hermitian_weight,
    omega_density,
    poisson,
    poisson_function,
    standard_family,
)
from .quadrature import (
    InsufficientResolutionError,
    QuadratureRule,
    build_quadrature,
    default_angular,
    default_radial,
)
from .sections import SectionBasis, gram_entry_closed_form
from .operators import (
    OperatorMatrix,
    ToeplitzFamily,
    geom_quant,
    op_norm,
    toeplitz,
    total_toeplitz,
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
