"""Kaehler data of P^1 in the affine chart, and smooth functions on it.

Conventions, fixed once for the whole package:

* metric weight of the degree-1 bundle: h1(z) = (1+|z|^2)^-1, level m uses
  h1^m;
* area form omega = 2 (1+|z|^2)^-2 dx dy = i (1+|z|^2)^-2 dz dzbar, total
  mass 2*pi, so the bundle's curvature integral is 1;
* Hamiltonian vector field of f: the dz-component is
  X^z = -i (1+|z|^2)^2 d f / d zbar, its conjugate is the dzbar-component
  for real f (operators._covariant_part forms X^z where it uses it);
* Poisson bracket {f,g} = i (1+|z|^2)^2 (f_zbar g_z - f_z g_zbar);
* Laplace-Beltrami operator (divergence of the gradient, negative
  spectrum): Delta f = 2 (1+|z|^2)^2 d^2 f / dz dzbar.

With these choices {x1,x2} = 2 x3 cyclically and Delta x_i = -4 x_i for the
ambient coordinate functions of the unit sphere; regression tests pin both
constants.  The curvature of the level-p weight, -d^2 log h1^p / dz dzbar =
p (1+|z|^2)^-2, is p times the dz dzbar density of omega: the prequantum
condition, which the acceptance suite checks exactly in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..poly import Polynomial, parse_polynomial
from . import sections
from .bands import FAMILY, sphere_laplacian
from .quadrature import bundle_weight


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


def poisson(f: SmoothFunction, g: SmoothFunction, z):
    """Pointwise Poisson bracket {f,g} at chart points z."""
    z = np.asarray(z, dtype=complex)
    factor = (1.0 + np.abs(z) ** 2) ** 2
    return 1j * factor * (f.d_zbar(z) * g.d_z(z) - f.d_z(z) * g.d_zbar(z))


def poisson_function(f: SmoothFunction, g: SmoothFunction) -> SmoothFunction:
    """{f,g} packaged as a SmoothFunction (values only)."""
    return SmoothFunction(name=f"{{{f.name},{g.name}}}", fn=lambda z: poisson(f, g, z))


def _h(z):
    """(1 + |z|^2)^-1, bit for bit 1 / (1 + |z|^2).  The nodes of the rule
    of the basis sections.level_basis keeps are read-only and owned by it,
    so for exactly that array the rule's stored h is returned; any other
    array, a copy of those nodes included, is computed fresh."""
    basis = sections._last
    return basis.quad.h if basis is not None and z is basis.quad.nodes else bundle_weight(z)


#: the coordinates x1, x2, x3 of the unit sphere over chart points z, h = _h(z)
_COORDINATES = (lambda z, h: 2.0 * z.real * h, lambda z, h: 2.0 * z.imag * h,
                lambda z, h: 2.0 * h - 1.0)


def _coordinate_derivative(i: int, z, h2, bar: bool):
    """d x_i / dzbar (bar) in closed form, h2 = _h(z)^2: h2 (1 - z^2),
    i h2 (1 + z^2) and -2 z h2; d x_i / dz is its conjugate (x_i is real)."""
    out = np.empty_like(z)
    if i < 2:
        np.square(z, out=out)
        if i == 0:
            np.subtract(1.0, out, out=out)
        else:
            out += 1.0
            out *= 1j
    else:
        np.multiply(z, -2.0, out=out)
    out *= h2
    return out if bar else np.conjugate(out, out=out)


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
    h2 = np.square(h)
    for i, p_i in gradient:
        term = _coordinate_derivative(i, z, h2, bar)
        if p_i is not None:
            term *= _evaluate(p_i, z, h)
        out = term if out is None else out + term
    return out


def _on_sphere(name: str, text: str) -> SmoothFunction:
    """The polynomial in X0, X1, X2 = x1, x2, x3 given by text, restricted to
    the sphere, with every chart fact derived from it.  Values are real."""
    p = parse_polynomial(text, 3)
    lap, unit = sphere_laplacian(p), Polynomial.constant(3, 1)
    gradient = [(i, None if p_i == unit else p_i)
                for i, p_i in enumerate(map(p.partial, range(3))) if not p_i.is_zero]
    return SmoothFunction(name, fn=lambda z: _evaluate(p, z),
                          at_infinity=float(p.evaluate((0, 0, -1))),
                          dz=lambda z: _derivative(gradient, z, False),
                          dzbar=lambda z: _derivative(gradient, z, True),
                          lap=lambda z: _evaluate(lap, z))


def standard_family() -> dict[str, SmoothFunction]:
    """The fixed test family (bands.FAMILY), polynomials in X0, X1, X2 = x1,
    x2, x3: 1, the three coordinates, x3^2 and x1*x2.  Closed under the
    Poisson bracket up to constants, with known angular selection rules."""
    return {name: _on_sphere(name, text) for name, (text, _) in FAMILY.items()}
