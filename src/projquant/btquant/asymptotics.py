"""Semiclassical diagnostics, each per level with a log-log slope fit: norm
saturation, the product residual and the commutator/Poisson (Dirac) residual.
The Dirac residual is also the star product's first-order check: the
antisymmetric part m (T_f T_g - T_{fg}) - m (T_g T_f - T_{gf}) - T_{-i{f,g}}
is -i (m i [T_f, T_g] - T_{{f,g}}), so it has the Dirac residual's norm.
Every level m is taken on the rule quad, by default its own build_quadrature(m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import SmoothFunction, poisson_function
from .operators import OperatorMatrix, _assemble, _toeplitz_of, op_norm, toeplitz
from .quadrature import QuadratureRule
from .sections import level_basis


def doubling_levels(m_min: int, m_max: int) -> list[int]:
    """m_min, 2*m_min, ... capped so the last entry is m_max."""
    if m_min < 1 or m_max < m_min:
        raise ValueError("need 1 <= m_min <= m_max")
    levels = []
    m = m_min
    while m < m_max:
        levels.append(m)
        m *= 2
    levels.append(m_max)
    return levels


def fit_loglog_slope(ms, values) -> float | None:
    """Least-squares slope of log(value) against log(m); None when fewer
    than two distinct levels leave no line to fit, or when a value <= 0 has
    no logarithm."""
    if len(set(ms)) < 2 or not all(v > 0 for v in values):
        return None
    x = np.log(np.asarray(ms, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


@dataclass(frozen=True)
class ConvergenceTable:
    levels: tuple
    values: tuple
    slope: float | None

    def rows(self):
        return list(zip(self.levels, self.values))


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
    vals = tuple(dirac_residual(f, g, m, quad=quad) for m in m_list)
    return ConvergenceTable(tuple(m_list), vals, fit_loglog_slope(m_list, vals))


def product_table(f, g, m_list, quad=None) -> ConvergenceTable:
    vals = tuple(product_residual(f, g, m, quad=quad) for m in m_list)
    return ConvergenceTable(tuple(m_list), vals, fit_loglog_slope(m_list, vals))
