"""Semiclassical diagnostics, each per level with a log-log slope fit: norm
saturation, the product residual and the commutator/Poisson (Dirac) residual.
The Dirac residual is also the star product's first-order check: the
antisymmetric part m (T_f T_g - T_{fg}) - m (T_g T_f - T_{gf}) - T_{-i{f,g}}
is -i (m i [T_f, T_g] - T_{{f,g}}), so it has the Dirac residual's norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import SmoothFunction, poisson_function
from .operators import _level_basis, op_norm, toeplitz
from .quadrature import QuadratureRule, build_quadrature
from .sections import SectionBasis


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


def _shared_quad(levels, quad):
    return quad if quad is not None else build_quadrature(max(levels))


def norm_asymptotics(f: SmoothFunction, m_list,
                     quad: QuadratureRule | None = None) -> dict:
    """Per-level operator norms of T_f against the sup norm of f.

    Returns rows (m, norm, gap) with gap = sup|f| - norm, plus the log-log
    slope of the gap (the saturation rate of the norm from below).
    """
    quad = _shared_quad(m_list, quad)
    sup = f.sup_norm()
    rows = []
    for m in m_list:
        nrm = op_norm(toeplitz(f, m, quad=quad))
        rows.append((m, nrm, sup - nrm))
    gaps = [g for (_, _, g) in rows]
    return {"sup_norm": sup, "rows": rows, "gap_slope": fit_loglog_slope(m_list, gaps)}


def dirac_residual(f: SmoothFunction, g: SmoothFunction, m: int,
                   quad: QuadratureRule | None = None,
                   basis: SectionBasis | None = None) -> float:
    """|| m i [T_f, T_g] - T_{{f,g}} || at level m."""
    b = _level_basis(m, quad, basis)
    tf = toeplitz(f, m, basis=b)
    tg = toeplitz(g, m, basis=b)
    tb = toeplitz(poisson_function(f, g), m, basis=b)
    comm = tf @ tg - tg @ tf
    return op_norm(m * 1j * comm - tb)


def product_residual(f: SmoothFunction, g: SmoothFunction, m: int,
                     quad: QuadratureRule | None = None,
                     basis: SectionBasis | None = None) -> float:
    """|| T_f T_g - T_{f g} || at level m."""
    b = _level_basis(m, quad, basis)
    tf = toeplitz(f, m, basis=b)
    tg = toeplitz(g, m, basis=b)
    fg = SmoothFunction(name=f"{f.name}*{g.name}", fn=lambda z: f(z) * g(z))
    tfg = toeplitz(fg, m, basis=b)
    return op_norm(tf @ tg - tfg)


def dirac_table(f, g, m_list, quad=None) -> ConvergenceTable:
    quad = _shared_quad(m_list, quad)
    vals = tuple(dirac_residual(f, g, m, quad=quad) for m in m_list)
    return ConvergenceTable(tuple(m_list), vals, fit_loglog_slope(m_list, vals))


def product_table(f, g, m_list, quad=None) -> ConvergenceTable:
    quad = _shared_quad(m_list, quad)
    vals = tuple(product_residual(f, g, m, quad=quad) for m in m_list)
    return ConvergenceTable(tuple(m_list), vals, fit_loglog_slope(m_list, vals))
