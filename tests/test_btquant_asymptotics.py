import warnings

import numpy as np
import pytest

from projquant.btquant import (
    dirac_residual,
    dirac_table,
    doubling_levels,
    fit_loglog_slope,
    norm_asymptotics,
    product_residual,
    product_table,
    toeplitz,
    tuynman_residual,
)
from projquant.btquant.chart import SmoothFunction, poisson_function
from projquant.btquant.operators import op_norm

LEVELS = [4, 8, 16, 32, 64]


def test_doubling_levels():
    assert doubling_levels(4, 64) == [4, 8, 16, 32, 64]
    assert doubling_levels(3, 20) == [3, 6, 12, 20]
    assert doubling_levels(5, 5) == [5]
    with pytest.raises(ValueError):
        doubling_levels(0, 4)


def test_fit_loglog_slope_exact_powers():
    ms = [2, 4, 8, 16]
    assert abs(fit_loglog_slope(ms, [1.0 / m for m in ms]) + 1.0) < 1e-12
    assert abs(fit_loglog_slope(ms, [3.0 / m ** 2 for m in ms]) + 2.0) < 1e-12


def test_fit_loglog_slope_needs_two_levels(family, quad64):
    # one level, or one level repeated, leaves no line to fit; a value <= 0
    # has no logarithm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_loglog_slope([16], [0.1]) is None
        assert fit_loglog_slope([16, 16], [0.1, 0.2]) is None
        assert fit_loglog_slope([4, 8, 16], [0.1, 0.0, 0.02]) is None
        assert fit_loglog_slope([4, 8, 16], [0.1, 0.05, -0.02]) is None
        assert norm_asymptotics(family["x3"], [16], quad=quad64)["gap_slope"] is None
        assert dirac_table(family["x1"], family["x2"], [16], quad=quad64).slope is None


# -- norm saturation ------------------------------------------------------------

def test_norm_table_height_function(family, quad64):
    data = norm_asymptotics(family["x3"], LEVELS, quad=quad64)
    for m, nrm, gap in data["rows"]:
        assert abs(nrm - m / (m + 2)) < 1e-8
        assert abs(gap - 2.0 / (m + 2)) < 1e-6
    assert abs(data["gap_slope"] + 0.8684) < 2e-3  # closed-form fit value


def test_norm_gap_zero_for_constants(family, quad64):
    data = norm_asymptotics(family["one"], [2, 4, 8], quad=quad64)
    for _, nrm, gap in data["rows"]:
        assert abs(nrm - 1.0) < 1e-10
        assert abs(gap) < 1e-10
    assert data["gap_slope"] is None


def test_norm_upper_bound_across_family(family, quad64):
    for f in family.values():
        data = norm_asymptotics(f, [4, 16, 64], quad=quad64)
        for _, nrm, _ in data["rows"]:
            assert nrm <= data["sup_norm"] + 1e-8


# -- commutator (Dirac) residual ---------------------------------------------------

def test_dirac_residual_closed_form(family, quad64):
    # exact value 4m/(m+2)^2: the scaled-spin model makes it analytic
    for m in LEVELS:
        res = dirac_residual(family["x1"], family["x2"], m, quad=quad64)
        assert abs(res - 4.0 * m / (m + 2) ** 2) < 1e-9


def test_dirac_self_bracket_vanishes(family, quad64):
    assert dirac_residual(family["x3"], family["x3"], 8, quad=quad64) < 1e-8


def test_dirac_slope(family, quad64):
    table = dirac_table(family["x1"], family["x2"], LEVELS, quad=quad64)
    assert abs(table.slope + 1.0) <= 0.3
    # known exact endpoint ratio: 7.5625, strictly below 8
    assert abs(table.values[0] / table.values[-1] - 7.5625) < 1e-6


def test_dirac_bilinearity_identity(family, quad64):
    # m i [T_2f, T_g] - T_{2f,g} = 2 (m i [T_f, T_g] - T_{f,g}) as matrices
    f, g = family["x1"], family["x2"]
    m = 8
    f2 = SmoothFunction(name="2x1", fn=lambda z: 2.0 * f.fn(z),
                        dz=lambda z: 2.0 * f.dz(z), dzbar=lambda z: 2.0 * f.dzbar(z))
    tf, tg = toeplitz(f, m, quad=quad64), toeplitz(g, m, quad=quad64)
    tf2 = toeplitz(f2, m, quad=quad64)
    tb = toeplitz(poisson_function(f, g), m, quad=quad64)
    tb2 = toeplitz(poisson_function(f2, g), m, quad=quad64)
    lhs = (m * 1j * (tf2 @ tg - tg @ tf2) - tb2).mat
    rhs = 2.0 * (m * 1j * (tf @ tg - tg @ tf) - tb).mat
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def _z_rotated_frame(family, phi):
    """y_i = sum_j R_ij x_j for the turn by phi about the x3 axis, assembled
    from the family's fn/dz/dzbar/lap/at_infinity fields as an outside
    caller (the benchmark's bt_deep workload) assembles it."""
    c, s = np.cos(phi), np.sin(phi)
    xs = [family["x1"], family["x2"], family["x3"]]

    def combo(row, attr):
        parts = [(float(a), getattr(x, attr)) for a, x in zip(row, xs)]
        return lambda z: sum(a * fn(z) for a, fn in parts)

    return [SmoothFunction(f"y{i + 1}", fn=combo(row, "fn"),
                           at_infinity=float(sum(a * x.at_infinity for a, x in zip(row, xs))),
                           dz=combo(row, "dz"), dzbar=combo(row, "dzbar"), lap=combo(row, "lap"))
            for i, row in enumerate(((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0)))]


def test_rotated_frame_from_family_fields(family):
    m = 16
    y = _z_rotated_frame(family, 0.7)
    for f in y:
        assert tuynman_residual(f, m) <= 1e-12
        # the grid's 64 angles miss a turned maximum by at most pi/64
        assert np.cos(np.pi / 64) <= f.sup_norm() <= 1.0
    # {y1, y2} = 2 y3 cyclically, as for the coordinates themselves
    for a, b in ((0, 1), (1, 2), (2, 0)):
        assert abs(dirac_residual(y[a], y[b], m) - 4.0 * m / (m + 2) ** 2) <= 1e-12


# -- product residual -----------------------------------------------------------------

def test_product_residual_closed_form(family, quad64):
    # the residual for (x3, x3) is exactly 1/(m+3) at every level
    for m in LEVELS:
        res = product_residual(family["x3"], family["x3"], m, quad=quad64)
        assert abs(res - 1.0 / (m + 3)) < 1e-10


def test_product_residual_identity_function(family, quad64):
    assert product_residual(family["one"], family["x3"], 8, quad=quad64) < 1e-10


def test_product_slope(family, quad64):
    table = product_table(family["x3"], family["x3"], LEVELS, quad=quad64)
    assert abs(table.slope + 1.0) <= 0.3


def test_product_residual_symmetric_for_commuting_pair(family, quad64):
    # x3 and x3^2 commute (both diagonal), so the order does not matter
    m = 8
    a = product_residual(family["x3"], family["x3sq"], m, quad=quad64)
    b = product_residual(family["x3sq"], family["x3"], m, quad=quad64)
    assert abs(a - b) < 1e-10


# -- star product first order ----------------------------------------------------------

def test_star_c1_self_pair_vanishes(family, quad64):
    # the antisymmetric first-order part of the star product has the Dirac
    # residual's norm, and a function commutes with itself
    for m in (4, 8):
        assert dirac_residual(family["x3"], family["x3"], m, quad=quad64) < 1e-9


def test_star_c0_residual_decays(family, quad64):
    c0 = product_table(family["x1"], family["x2"], LEVELS, quad=quad64).values
    assert all(b < a for a, b in zip(c0, c0[1:]))
    assert c0[-1] < 0.25 * c0[0]


def test_operator_norm_of_difference_uses_power_iteration(family, quad64):
    # sanity: asymptotics built on op_norm match numpy's spectral norm
    m = 16
    tf = toeplitz(family["x1"], m, quad=quad64)
    tg = toeplitz(family["x2"], m, quad=quad64)
    diff = (tf @ tg - tg @ tf).mat
    assert abs(op_norm(tf @ tg - tg @ tf) - np.linalg.norm(diff, 2)) < 1e-10
