from fractions import Fraction

import numpy as np
import pytest

from projquant.btquant import (
    GradientUnavailableError,
    SmoothFunction,
    poisson,
    poisson_function,
    tuynman_residual,
)
from projquant.gaussrat import GaussianRational
from projquant.poly import parse_polynomial

RNG = np.random.default_rng(42)
GRID = RNG.normal(size=100) + 1j * RNG.normal(size=100)


def _central_differences(fn, z, step=1e-5):
    """(d/dz, d/dzbar) of fn by central differences in x and y."""
    fx = (fn(z + step) - fn(z - step)) / (2 * step)
    fy = (fn(z + 1j * step) - fn(z - 1j * step)) / (2 * step)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _five_point_laplacian(fn, z, step=1e-4):
    """2 (1+|z|^2)^2 d^2/dz dzbar by the five-point stencil."""
    second = (fn(z + step) + fn(z - step) + fn(z + 1j * step) + fn(z - 1j * step)
              - 4.0 * fn(z)) / step ** 2
    return 0.5 * (1.0 + np.abs(z) ** 2) ** 2 * second


def test_analytic_gradients_match_finite_differences(family):
    # the chain-rule derivatives against an independent route
    for f in family.values():
        dz, dzbar = _central_differences(f.fn, GRID)
        assert np.max(np.abs(f.d_z(GRID) - dz)) < 1e-6
        assert np.max(np.abs(f.d_zbar(GRID) - dzbar)) < 1e-6


#: each symbol as N(x, y) / (1 + x^2 + y^2)^k in the chart z = x + iy
_X, _Y = parse_polynomial("X0", 2), parse_polynomial("X1", 2)
_D = parse_polynomial("1 + X0^2 + X1^2", 2)
_N3 = parse_polynomial("1 - X0^2 - X1^2", 2)
_QUOTIENTS = {"x1": (2 * _X, 1), "x2": (2 * _Y, 1), "x3": (_N3, 1),
              "x1x2": (4 * _X * _Y, 2), "x3sq": (_N3 * _N3, 2)}


def _exact_chart_derivatives(name, x, y):
    """(d/dz, d/dzbar) at the rational point x + iy, from the exact real
    partials of N / D^k by the quotient rule."""
    n, k = _QUOTIENTS[name]
    d = _D.evaluate((x, y))
    fx, fy = ((n.partial(i).evaluate((x, y)) * d
               - k * n.evaluate((x, y)) * _D.partial(i).evaluate((x, y))) / d ** (k + 1)
              for i in range(2))
    return GaussianRational(fx / 2, -fy / 2), GaussianRational(fx / 2, fy / 2)


def test_closed_form_derivatives_match_exact_values(family):
    # dyadic points are exact in floating point, so the float derivatives
    # must agree with the exact ones to rounding, a few ulps
    points = [(Fraction(1, 2), Fraction(3, 4)), (Fraction(-3, 2), Fraction(1, 8)),
              (Fraction(5, 4), Fraction(-7, 4)), (Fraction(3), Fraction(5, 2)),
              (Fraction(-1, 4), Fraction(-1, 16))]
    z = np.array([complex(x, y) for x, y in points])
    eps = np.finfo(float).eps
    for name in _QUOTIENTS:
        f = family[name]
        got = f.d_z(z), f.d_zbar(z)
        for j, (x, y) in enumerate(points):
            for value, exact in zip((g[j] for g in got), _exact_chart_derivatives(name, x, y)):
                assert abs(value - complex(exact)) <= 4 * eps * abs(complex(exact))


def test_family_bounded_on_sphere(family):
    for f in family.values():
        assert f.sup_norm() <= 1.0 + 1e-9


def test_sup_norms(family):
    # the grid holds z = 0, the equator |z| = 1 and the point at infinity,
    # where every family member reaches its sup (x1*x2: 1/2 at |z| = 1, arg pi/4)
    sups = {"one": 1.0, "x1": 1.0, "x2": 1.0, "x3": 1.0, "x3sq": 1.0, "x1x2": 0.5}
    for name, f in family.items():
        assert abs(f.sup_norm() - sups[name]) < 1e-12


def test_value_at_infinity_is_the_south_pole(family):
    # the point at infinity is (x1, x2, x3) = (0, 0, -1); near it the
    # coordinates differ from that by at most 2/|z|
    poles = {"one": 1.0, "x1": 0.0, "x2": 0.0, "x3": -1.0, "x3sq": 1.0, "x1x2": 0.0}
    R = 1e8
    far = R * np.exp(1j * np.linspace(0.1, 6.0, 7))
    for name, f in family.items():
        assert type(f.at_infinity) is float and f.at_infinity == poles[name]
        assert np.max(np.abs(f.fn(far) - poles[name])) <= 4.0 / R


def test_values_only_function_has_no_derivatives(family):
    # nothing estimates a missing callable: every consumer names it instead
    bare = SmoothFunction(name="bare", fn=family["x1"].fn, at_infinity=0.0)
    for method, field in ((bare.d_z, "dz"), (bare.d_zbar, "dzbar"),
                          (bare.laplacian_values, "lap")):
        with pytest.raises(GradientUnavailableError, match=f"bare has no {field} callable"):
            method(GRID)
    with pytest.raises(GradientUnavailableError):
        tuynman_residual(bare, 4)


def test_poisson_antisymmetry_and_self_bracket(family):
    f, g = family["x1"], family["x3"]
    assert np.max(np.abs(poisson(f, f, GRID))) < 1e-12
    assert np.max(np.abs(poisson(f, g, GRID) + poisson(g, f, GRID))) < 1e-12


def test_poisson_constant_regression(family):
    # {x1,x2} = 2*x3 cyclically: the constant 2 is pinned by the form's
    # normalization (total area 2*pi) and must never drift
    x1, x2, x3 = family["x1"], family["x2"], family["x3"]
    assert np.max(np.abs(poisson(x1, x2, GRID) - 2 * x3.fn(GRID))) < 1e-10
    assert np.max(np.abs(poisson(x2, x3, GRID) - 2 * x1.fn(GRID))) < 1e-10
    assert np.max(np.abs(poisson(x3, x1, GRID) - 2 * x2.fn(GRID))) < 1e-10


def test_poisson_leibniz_rule(family):
    # {f, g*h} = {f,g} h + g {f,h} with the product differentiated analytically
    f, g, h = family["x3"], family["x1"], family["x2"]
    gh = SmoothFunction(name="gh", fn=lambda z: g.fn(z) * h.fn(z),
                        dz=lambda z: g.dz(z) * h.fn(z) + g.fn(z) * h.dz(z),
                        dzbar=lambda z: g.dzbar(z) * h.fn(z) + g.fn(z) * h.dzbar(z))
    lhs = poisson(f, gh, GRID)
    rhs = poisson(f, g, GRID) * h.fn(GRID) + g.fn(GRID) * poisson(f, h, GRID)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_poisson_function_wrapper(family):
    pf = poisson_function(family["x1"], family["x2"])
    assert np.max(np.abs(pf(GRID) - 2 * family["x3"].fn(GRID))) < 1e-10
    # a bracket's value at infinity is not known, so it has no sup either
    assert pf.at_infinity is None
    with pytest.raises(ValueError):
        pf.sup_norm()


def test_laplacian_of_constant(family):
    assert np.max(np.abs(family["one"].laplacian_values(GRID))) == 0.0


def test_laplacian_eigenvalue_regression(family):
    # first spherical harmonics: Delta x_i = -4 x_i for this metric; the
    # derived value is cross-checked by finite differences
    for name in ("x1", "x2", "x3"):
        f = family[name]
        assert np.max(np.abs(f.laplacian_values(GRID) + 4.0 * f.fn(GRID))) < 1e-14
        fd = _five_point_laplacian(f.fn, GRID)
        assert np.max(np.abs(fd + 4.0 * f.fn(GRID))) < 1e-5


def test_laplacian_of_quadratic_symbols(family):
    # Delta x3^2 = -12 x3^2 + 4 and Delta x1 x2 = -12 x1 x2: degree-2 harmonics
    # (eigenvalue -12) plus the constant part of x3^2 = 1/3 + (x3^2 - 1/3)
    x1, x2, x3 = (family[n].fn(GRID) for n in ("x1", "x2", "x3"))
    lap_sq = family["x3sq"].laplacian_values(GRID)
    lap_12 = family["x1x2"].laplacian_values(GRID)
    assert np.max(np.abs(lap_sq - (-12.0 * x3 ** 2 + 4.0))) < 1e-14
    assert np.max(np.abs(lap_12 + 12.0 * x1 * x2)) < 1e-14
    for name in ("x3sq", "x1x2"):
        f = family[name]
        fd = _five_point_laplacian(f.fn, GRID)
        assert np.max(np.abs(fd - f.laplacian_values(GRID))) < 1e-5


def test_derived_facts_of_a_cubic_symbol():
    # beyond the family: rational and non-unit coefficients, powers, three terms
    from projquant.btquant.chart import _on_sphere
    f = _on_sphere("cubic", "X0^2*X1 - 3*X2^3 + 1/2*X0*X2")
    assert f.at_infinity == 3.0
    dz, dzbar = _central_differences(f.fn, GRID)
    assert np.max(np.abs(f.d_z(GRID) - dz)) < 1e-6
    assert np.max(np.abs(f.d_zbar(GRID) - dzbar)) < 1e-6
    assert np.max(np.abs(f.laplacian_values(GRID) - _five_point_laplacian(f.fn, GRID))) < 1e-5


def test_laplacian_additivity(family):
    f, g = family["x3"], family["x1"]
    combo = SmoothFunction(name="s", fn=lambda z: f.fn(z) + g.fn(z),
                           lap=lambda z: f.lap(z) + g.lap(z))
    assert np.max(np.abs(combo.laplacian_values(GRID)
                         - f.laplacian_values(GRID) - g.laplacian_values(GRID))) < 1e-12
