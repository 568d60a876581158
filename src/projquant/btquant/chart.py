"""Kaehler data of P^1 in the affine chart, and smooth test functions.

Conventions, fixed once for the whole package:

* metric weight of the degree-1 bundle: h1(z) = (1+|z|^2)^-1, level m uses
  h1^m;
* area form omega = 2 (1+|z|^2)^-2 dx dy = i (1+|z|^2)^-2 dz dzbar, total
  mass 2*pi, so the bundle's curvature integral is 1;
* Hamiltonian vector field of f: the dz-component is
  X^z = -i (1+|z|^2)^2 d f / d zbar, its conjugate is the dzbar-component
  for real f;
* Poisson bracket {f,g} = i (1+|z|^2)^2 (f_zbar g_z - f_z g_zbar);
* Laplace-Beltrami operator (divergence of the gradient, negative
  spectrum): Delta f = 2 (1+|z|^2)^2 d^2 f / dz dzbar.

With these choices {x1,x2} = 2 x3 cyclically and Delta x_i = -4 x_i for the
ambient coordinate functions of the unit sphere; regression tests pin both
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

FD_STEP = 1e-5


def hermitian_weight(z, m: int):
    """Metric weight of the level-m bundle in the chart: (1+|z|^2)^-m."""
    return (1.0 + np.abs(z) ** 2) ** (-m)


def omega_density(z):
    """Scalar density of omega against dx dy."""
    return 2.0 * (1.0 + np.abs(z) ** 2) ** (-2.0)


class GradientUnavailableError(RuntimeError):
    pass


@dataclass
class SmoothFunction:
    """Real or complex smooth function on the sphere, seen in the chart.

    fn evaluates on (arrays of) chart points; at_infinity supplies the value
    at the missing point.  Analytic chart derivatives are optional -- when
    absent, central differences with step 1e-5 stand in (matching analytic
    values to ~1e-6, which tests enforce for the shipped family).
    """

    name: str
    fn: Callable
    at_infinity: complex = 0.0
    dz: Callable | None = None
    dzbar: Callable | None = None
    lap: Callable | None = None

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))

    def d_z(self, z):
        z = np.asarray(z, dtype=complex)
        if self.dz is not None:
            return self.dz(z)
        fx = (self.fn(z + FD_STEP) - self.fn(z - FD_STEP)) / (2 * FD_STEP)
        fy = (self.fn(z + 1j * FD_STEP) - self.fn(z - 1j * FD_STEP)) / (2 * FD_STEP)
        return 0.5 * (fx - 1j * fy)

    def d_zbar(self, z):
        z = np.asarray(z, dtype=complex)
        if self.dzbar is not None:
            return self.dzbar(z)
        fx = (self.fn(z + FD_STEP) - self.fn(z - FD_STEP)) / (2 * FD_STEP)
        fy = (self.fn(z + 1j * FD_STEP) - self.fn(z - 1j * FD_STEP)) / (2 * FD_STEP)
        return 0.5 * (fx + 1j * fy)

    def laplacian_values(self, z):
        z = np.asarray(z, dtype=complex)
        if self.lap is not None:
            return self.lap(z)
        h = 1e-4
        second = (self.fn(z + h) + self.fn(z - h) + self.fn(z + 1j * h)
                  + self.fn(z - 1j * h) - 4.0 * self.fn(z)) / h ** 2
        return 0.5 * (1.0 + np.abs(z) ** 2) ** 2 * second

    def sup_norm(self, radial: int = 160, angular: int = 64) -> float:
        """Numerical sup over the sphere: deterministic chart grid plus the
        point at infinity."""
        t = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, radial)
        r = np.sqrt((1 + t) / (1 - t))
        th = 2 * np.pi * np.arange(angular) / angular
        z = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
        return float(max(np.max(np.abs(self.fn(z))), abs(self.at_infinity)))


def hamiltonian_vf(f: SmoothFunction, z):
    """Components (X^z, X^zbar) of the Hamiltonian field of f at z."""
    z = np.asarray(z, dtype=complex)
    if np.any(~np.isfinite(z)):
        raise GradientUnavailableError("chart gradient unavailable at infinity")
    factor = (1.0 + np.abs(z) ** 2) ** 2
    xz = -1j * factor * f.d_zbar(z)
    xzbar = 1j * factor * f.d_z(z)
    return xz, xzbar


def poisson(f: SmoothFunction, g: SmoothFunction, z):
    """Pointwise Poisson bracket {f,g} at chart points z."""
    z = np.asarray(z, dtype=complex)
    factor = (1.0 + np.abs(z) ** 2) ** 2
    return 1j * factor * (f.d_zbar(z) * g.d_z(z) - f.d_z(z) * g.d_zbar(z))


def poisson_function(f: SmoothFunction, g: SmoothFunction) -> SmoothFunction:
    """{f,g} packaged as a SmoothFunction (values only; derivatives fall
    back to finite differences)."""
    inf_ring = 1e6 * np.exp(2j * np.pi * np.arange(8) / 8)
    at_inf = complex(np.mean(poisson(f, g, inf_ring)))
    return SmoothFunction(
        name=f"{{{f.name},{g.name}}}",
        fn=lambda z: poisson(f, g, z),
        at_infinity=at_inf,
    )


def laplacian(f: SmoothFunction, z):
    """Laplace-Beltrami operator of the Fubini-Study metric applied to f."""
    return f.laplacian_values(z)


def shifted_by_laplacian(f: SmoothFunction, m: int) -> SmoothFunction:
    """The combination f - (1/2m) Delta f entering the Tuynman identity."""
    inf_ring = 1e6 * np.exp(2j * np.pi * np.arange(8) / 8)
    lap_inf = complex(np.mean(f.laplacian_values(inf_ring)))
    return SmoothFunction(
        name=f"{f.name}-lap/{2 * m}",
        fn=lambda z: f(z) - f.laplacian_values(z) / (2.0 * m),
        at_infinity=f.at_infinity - lap_inf / (2.0 * m),
    )


def curvature_residual(grid_halfwidth: float = 3.0, grid_points: int = 61,
                       step: float = 1e-3, metric_power: int = 1) -> float:
    """Quantum-condition check: max |(-d^2/dz dzbar) log h1^p + i^2 * p * omega_dz|.

    Finite differences of -log(1+|z|^2)^-p are compared against p times the
    dz-dzbar density of omega, i.e. p*(1+|z|^2)^-2; the identity is the
    curvature equation of the level-p bundle.
    """
    xs = np.linspace(-grid_halfwidth, grid_halfwidth, grid_points)
    z = (xs[:, None] + 1j * xs[None, :]).ravel()

    def logh(u):
        return -metric_power * np.log1p(np.abs(u) ** 2)

    lap4 = (logh(z + step) + logh(z - step) + logh(z + 1j * step)
            + logh(z - 1j * step) - 4.0 * logh(z)) / step ** 2
    dz_dzbar = lap4 / 4.0
    target = metric_power * (1.0 + np.abs(z) ** 2) ** (-2.0)
    return float(np.max(np.abs(-dz_dzbar - target)))


def chart_change_residual(samples: int = 32) -> float:
    """Consistency of the curvature density under z -> 1/z at overlap points.

    The density transforms with |dz'/dz|^2 = |z|^-4; both charts must give
    the same value after the change of variables.
    """
    rng = np.linspace(0.5, 2.0, samples)
    z = rng * np.exp(1j * np.linspace(0.1, 6.0, samples))
    here = (1.0 + np.abs(z) ** 2) ** (-2.0)
    there = (1.0 + np.abs(1.0 / z) ** 2) ** (-2.0) * np.abs(z) ** (-4.0)
    return float(np.max(np.abs(here - there)))


def _h(z):
    return 1.0 / (1.0 + np.abs(z) ** 2)


def _of_h(expr):
    """z -> expr(z, h) with h = _h(z) computed once per call."""
    return lambda z: expr(z, _h(z))


def standard_family() -> dict[str, SmoothFunction]:
    """The fixed test family: 1, the three ambient coordinates x1, x2, x3 of
    the unit sphere, x3^2 and x1*x2.  Closed under the Poisson bracket up to
    constants, with known angular selection rules."""
    x1 = SmoothFunction(
        "x1",
        fn=lambda z: ((z + np.conj(z)) * _h(z)).real.astype(complex),
        at_infinity=0.0,
        dz=_of_h(lambda z, h: h - (z + np.conj(z)) * np.conj(z) * h ** 2),
        dzbar=_of_h(lambda z, h: h - (z + np.conj(z)) * z * h ** 2),
        lap=lambda z: -4.0 * (z + np.conj(z)) * _h(z),
    )
    x2 = SmoothFunction(
        "x2",
        fn=lambda z: (-1j * (z - np.conj(z)) * _h(z)).real.astype(complex),
        at_infinity=0.0,
        dz=_of_h(lambda z, h: -1j * h + 1j * (z - np.conj(z)) * np.conj(z) * h ** 2),
        dzbar=_of_h(lambda z, h: 1j * h + 1j * (z - np.conj(z)) * z * h ** 2),
        lap=lambda z: -4.0 * (-1j) * (z - np.conj(z)) * _h(z),
    )
    x3 = SmoothFunction(
        "x3",
        fn=lambda z: (2.0 * _h(z) - 1.0).astype(complex),
        at_infinity=-1.0,
        dz=lambda z: -2.0 * np.conj(z) * _h(z) ** 2,
        dzbar=lambda z: -2.0 * z * _h(z) ** 2,
        lap=lambda z: -4.0 * (2.0 * _h(z) - 1.0),
    )
    one = SmoothFunction(
        "one",
        fn=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        at_infinity=1.0,
        dz=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
        dzbar=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
        lap=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
    )
    x3sq = SmoothFunction(
        "x3sq",
        fn=lambda z: (2.0 * _h(z) - 1.0).astype(complex) ** 2,
        at_infinity=1.0,
        dz=_of_h(lambda z, h: 2.0 * (2.0 * h - 1.0) * (-2.0 * np.conj(z) * h ** 2)),
        dzbar=_of_h(lambda z, h: 2.0 * (2.0 * h - 1.0) * (-2.0 * z * h ** 2)),
        lap=lambda z: -12.0 * (2.0 * _h(z) - 1.0) ** 2 + 4.0,
    )
    x1x2 = SmoothFunction(
        "x1x2",
        fn=lambda z: x1.fn(z) * x2.fn(z),
        at_infinity=0.0,
        dz=lambda z: x1.dz(z) * x2.fn(z) + x1.fn(z) * x2.dz(z),
        dzbar=lambda z: x1.dzbar(z) * x2.fn(z) + x1.fn(z) * x2.dzbar(z),
        lap=lambda z: -12.0 * x1.fn(z) * x2.fn(z),
    )
    return {"one": one, "x1": x1, "x2": x2, "x3": x3, "x3sq": x3sq, "x1x2": x1x2}
