"""Semiclassical diagnostics, each per level with a log-log slope fit: norm
saturation, the product residual and the commutator/Poisson (Dirac) residual.
The Dirac residual is also the star product's first-order check: the
antisymmetric part m (T_f T_g - T_{fg}) - m (T_g T_f - T_{gf}) - T_{-i{f,g}}
is -i (m i [T_f, T_g] - T_{{f,g}}), so it has the Dirac residual's norm.
Every level m is taken on the rule quad, by default its own build_quadrature(m).
"""

from __future__ import annotations

import numpy as np

from .bands import ConvergenceTable, convergence_table, fit_loglog_slope
from .chart import SmoothFunction, poisson_function
from .operators import OperatorMatrix, _assemble, _toeplitz_of, op_norm, toeplitz
from .quadrature import QuadratureRule
from .sections import level_basis


def norm_asymptotics(f: SmoothFunction, m_list,
                     quad: QuadratureRule | None = None) -> dict:
    """Per-level operator norms of T_f against the sup norm of f.

    Returns rows (m, norm, gap) with gap = sup|f| - norm, plus the log-log
    slope of the gap (the saturation rate of the norm from below).
    """
    sup = f.sup_norm()
    rows = []
    for m in m_list:
        nrm = op_norm(toeplitz(f, m, quad=quad))
        rows.append((m, nrm, sup - nrm))
    gaps = [g for (_, _, g) in rows]
    return {"sup_norm": sup, "rows": rows, "gap_slope": fit_loglog_slope(m_list, gaps)}


def dirac_residual(f: SmoothFunction, g: SmoothFunction, m: int,
                   quad: QuadratureRule | None = None) -> float:
    """|| m i [T_f, T_g] - T_{{f,g}} || at level m.

    For real node values of f and g, f_z = conj(f_zbar), so the bracket is
    -2 (1+|z|^2)^2 Im(f_zbar conj(g_zbar)) from two derivatives, and with
    T_f, T_g Hermitian the commutator is C - C^H for C = T_f T_g: the
    residual is Hermitian by construction.  Complex values take the full
    bracket and both products.
    """
    b = level_basis(m, quad)
    z = b.quad.nodes
    fv, gv = f(z), g(z)
    tf, tg = _toeplitz_of(b, fv), _toeplitz_of(b, gv)
    if not (tf.hermitian and tg.hermitian):
        tb = _toeplitz_of(b, poisson_function(f, g)(z))
        return op_norm(m * 1j * (tf @ tg - tg @ tf) - tb)
    w = f.d_zbar(z)
    w *= np.conj(g.d_zbar(z))
    scale = -2.0 * np.square(1.0 + b.quad.radii ** 2)  # (1 + |z|^2)^2 is constant per radius
    bracket = w.imag.reshape(scale.size, -1) * scale[:, None]
    c = tf.mat @ tg.mat
    comm = c - c.conj().T
    comm *= m * 1j
    comm -= _assemble(b, bracket)
    return op_norm(OperatorMatrix(m, comm, hermitian=True))


def product_residual(f: SmoothFunction, g: SmoothFunction, m: int,
                     quad: QuadratureRule | None = None) -> float:
    """|| T_f T_g - T_{f g} || at level m."""
    b = level_basis(m, quad)
    z = b.quad.nodes
    fv, gv = f(z), g(z)
    return op_norm(_toeplitz_of(b, fv) @ _toeplitz_of(b, gv) - _toeplitz_of(b, fv * gv))


def dirac_table(f, g, m_list, quad=None) -> ConvergenceTable:
    return convergence_table(lambda m: dirac_residual(f, g, m, quad=quad), m_list)


def product_table(f, g, m_list, quad=None) -> ConvergenceTable:
    return convergence_table(lambda m: product_residual(f, g, m, quad=quad), m_list)
