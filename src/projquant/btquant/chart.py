"""Kaehler data of P^1 in the affine chart, and smooth functions on it.

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

from ..poly import Polynomial, parse_polynomial


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

    fn evaluates on (arrays of) chart points; at_infinity is the value at the
    missing point, or None when it is not known.  The chart derivatives dz,
    dzbar and the Laplacian lap are optional callables; a function without
    one raises GradientUnavailableError where it is needed, since no
    estimate stands in for it.
    """

    name: str
    fn: Callable
    at_infinity: float | None = None
    dz: Callable | None = None
    dzbar: Callable | None = None
    lap: Callable | None = None

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))

    def _derived(self, field: str, z):
        callable_ = getattr(self, field)
        if callable_ is None:
            raise GradientUnavailableError(f"{self.name} has no {field} callable")
        return callable_(np.asarray(z, dtype=complex))

    def d_z(self, z):
        return self._derived("dz", z)

    def d_zbar(self, z):
        return self._derived("dzbar", z)

    def laplacian_values(self, z):
        return self._derived("lap", z)

    def sup_norm(self) -> float:
        """Max |f| over 160 heights x3 uniform in (-1, 1], among them z = 0 and
        the equator |z| = 1, times 64 angles, and the point at infinity."""
        if self.at_infinity is None:
            raise ValueError(f"{self.name} has no known value at infinity")
        t = np.linspace(-1.0, 1.0, 161)[:-1]
        r = np.sqrt((1 + t) / (1 - t))
        th = 2 * np.pi * np.arange(64) / 64
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
    """{f,g} packaged as a SmoothFunction (values only)."""
    return SmoothFunction(name=f"{{{f.name},{g.name}}}", fn=lambda z: poisson(f, g, z))


def shifted_by_laplacian(f: SmoothFunction, m: int) -> SmoothFunction:
    """The combination f - (1/2m) Delta f entering the Tuynman identity."""
    return SmoothFunction(name=f"{f.name}-lap/{2 * m}",
                          fn=lambda z: f(z) - f.laplacian_values(z) / (2.0 * m))


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


#: the coordinates x1, x2, x3 of the unit sphere over chart points z, h = _h(z)
_COORDINATES = (lambda z, h: 2.0 * z.real * h, lambda z, h: 2.0 * z.imag * h,
                lambda z, h: 2.0 * h - 1.0)


def _coordinate_derivative(i: int, z, h, bar: bool):
    """d x_i / dz (bar: d x_i / dzbar) in one complex array: h - (z + zbar) w h^2,
    -+i h + i (z - zbar) w h^2 and -2 w h^2 with w = zbar (bar: z)."""
    out = z.copy() if bar else np.conj(z)
    out *= 2.0 * (z.real, z.imag)[i] if i < 2 else -2.0
    out *= h ** 2
    if i < 2:
        np.subtract(h if i == 0 else (1j if bar else -1j) * h, out, out=out)
    return out


def _sphere_laplacian(p: Polynomial) -> Polynomial:
    """Delta of p(x1, x2, x3) on the unit sphere, as a polynomial.  From
    Delta x_i = -4 x_i, <grad x_i, grad x_j> = 2 (delta_ij - x_i x_j) and
    Euler's sum_i x_i d_i X^a = d X^a for a term of degree d:
    Delta X^a = 2 sum_i d_i d_i X^a - 2 d (d + 1) X^a."""
    out = Polynomial(3, {m: -2 * sum(m) * (sum(m) + 1) * c for m, c in p.terms.items()})
    for i in range(3):
        out = out + 2 * p.partial(i).partial(i)
    return out


def _evaluate(q: Polynomial, z, h=None):
    """q at the sphere points over chart points z, as an array: evaluate_array
    on the coordinates q uses; h = _h(z) is formed here if not given."""
    z = np.asarray(z, dtype=complex)
    used = [any(mono[i] for mono in q.terms) for i in range(3)]
    if h is None and any(used):
        h = _h(z)
    value = q.evaluate_array([x(z, h) if u else None for x, u in zip(_COORDINATES, used)])
    return value if isinstance(value, np.ndarray) else np.full(z.shape, value)


def _derivative(gradient, z, bar: bool):
    """Chain rule: sum of d p / d X_i (None: the constant 1) times d x_i / dz
    (bar: / dzbar) over the nonzero partials in gradient."""
    z = np.asarray(z, dtype=complex)
    if not gradient:
        return np.zeros(z.shape, dtype=complex)
    h, out = _h(z), None
    for i, p_i in gradient:
        term = _coordinate_derivative(i, z, h, bar)
        if p_i is not None:
            term *= _evaluate(p_i, z, h)
        out = term if out is None else out + term
    return out


def _on_sphere(name: str, text: str) -> SmoothFunction:
    """The polynomial in X0, X1, X2 = x1, x2, x3 given by text, restricted to
    the sphere, with every chart fact derived from it.  Values are real."""
    p = parse_polynomial(text, 3)
    lap, unit = _sphere_laplacian(p), Polynomial.constant(3, 1)
    gradient = [(i, None if p_i == unit else p_i)
                for i, p_i in enumerate(map(p.partial, range(3))) if not p_i.is_zero]
    return SmoothFunction(name, fn=lambda z: _evaluate(p, z),
                          at_infinity=float(p.evaluate((0, 0, -1))),
                          dz=lambda z: _derivative(gradient, z, False),
                          dzbar=lambda z: _derivative(gradient, z, True),
                          lap=lambda z: _evaluate(lap, z))


def standard_family() -> dict[str, SmoothFunction]:
    """The fixed test family, polynomials in X0, X1, X2 = x1, x2, x3: 1, the
    three coordinates, x3^2 and x1*x2.  Closed under the Poisson bracket up
    to constants, with known angular selection rules."""
    texts = {"one": "1", "x1": "X0", "x2": "X1", "x3": "X2", "x3sq": "X2^2", "x1x2": "X0*X1"}
    return {name: _on_sphere(name, text) for name, text in texts.items()}
