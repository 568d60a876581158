import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projquant.btquant import (
    SectionBasis,
    build_quadrature,
    dirac_residual,
    geom_quant,
    op_norm,
    toeplitz,
    tuynman_residual,
)
from projquant.btquant.chart import SmoothFunction
from projquant.btquant.operators import OperatorMatrix, _assemble, _covariant_part
from projquant.btquant.sections import level_basis

from conftest import profiles, section_values


def spin_matrices(m: int):
    """Exact spin-j matrices (j = m/2) in the descending-weight basis,
    normalized so that [J1, J2] = i J3 cyclically."""
    dim = m + 1
    j1 = np.zeros((dim, dim))
    for k in range(m):
        j1[k + 1, k] = j1[k, k + 1] = 0.5 * math.sqrt((k + 1) * (m - k))
    j2 = np.zeros((dim, dim), dtype=complex)
    for k in range(m):
        j2[k, k + 1] = -0.5j * math.sqrt((k + 1) * (m - k))
        j2[k + 1, k] = 0.5j * math.sqrt((k + 1) * (m - k))
    j3 = np.diag([(m - 2 * k) / 2.0 for k in range(dim)])
    assert np.max(np.abs(j1 @ j2 - j2 @ j1 - 1j * j3)) < 1e-12
    return j1, j2, j3


def test_identity_function_gives_identity(family, quad64):
    for m in (1, 4, 16):
        T = toeplitz(family["one"], m, quad=quad64)
        assert np.max(np.abs(T.mat - np.eye(m + 1))) < 1e-10


def test_height_function_spectrum(family, quad64):
    # equally spaced eigenvalues (m-2k)/(m+2), symmetric about zero
    for m in (4, 8, 32):
        T = toeplitz(family["x3"], m, quad=quad64)
        expected = np.array([(m - 2 * k) / (m + 2) for k in range(m + 1)])
        assert np.max(np.abs(np.diag(T.mat).real - expected)) < 1e-12
        off = T.mat - np.diag(np.diag(T.mat))
        assert np.max(np.abs(off)) < 1e-12
        assert abs(np.diag(T.mat).real.sum()) < 1e-10  # symmetric spectrum


def test_height_norm_closed_form(family, quad64):
    for m in (4, 8, 16, 32, 64):
        T = toeplitz(family["x3"], m, quad=quad64)
        assert abs(op_norm(T) - m / (m + 2)) < 1e-10


def test_x1_is_real_symmetric_tridiagonal(family, quad64):
    m = 12
    T = toeplitz(family["x1"], m, quad=quad64).mat
    assert np.max(np.abs(T.imag)) < 1e-12
    for j in range(m + 1):
        for k in range(m + 1):
            if abs(j - k) != 1:
                assert abs(T[j, k]) < 1e-12
    assert np.max(np.abs(T - T.T.conj())) < 1e-12


def test_coordinate_toeplitz_are_scaled_spin_matrices(family, quad64):
    # T_{x1,x2,x3} = 2/(m+2) * (J1, -J2, J3): the exact finite-level model
    for m in (2, 6, 16):
        j1, j2, j3 = spin_matrices(m)
        scale = 2.0 / (m + 2)
        assert np.max(np.abs(toeplitz(family["x1"], m, quad=quad64).mat - scale * j1)) < 1e-12
        assert np.max(np.abs(toeplitz(family["x2"], m, quad=quad64).mat + scale * j2)) < 1e-12
        assert np.max(np.abs(toeplitz(family["x3"], m, quad=quad64).mat - scale * j3)) < 1e-12


def spin_ladder(m: int):
    """Raising operator J+ and J3 of spin m/2 in the descending-weight basis,
    so that J1 = (J+ + J-)/2 and J2 = (J+ - J-)/2i match spin_matrices."""
    k = np.arange(m)
    jp = np.diag(np.sqrt((k + 1.0) * (m - k)), 1)
    j3 = np.diag((m - 2.0 * np.arange(m + 1)) / 2.0)
    assert np.max(np.abs(jp @ jp.T - jp.T @ jp - 2 * j3)) < 1e-12 * m
    return jp, j3


@pytest.mark.parametrize("m", [96, 128, 256, 512])
def test_spin_model_at_large_levels(family, m):
    # the levels where a numeric Gram/Cholesky basis loses precision and
    # z^k overflows: the spin-model closed forms must still hold to 1e-10
    quad = build_quadrature(m)
    jp, j3 = spin_ladder(m)
    scale = 2.0 / (m + 2)
    targets = {"x1": scale * (jp + jp.T) / 2, "x2": -scale * (jp - jp.T) / 2j,
               "x3": scale * j3}
    for name, target in targets.items():
        assert np.max(np.abs(toeplitz(family[name], m, quad=quad).mat - target)) < 1e-10
    closed_form = 4.0 * m / (m + 2) ** 2
    for f, g in (("x1", "x2"), ("x2", "x3"), ("x3", "x1")):
        r = dirac_residual(family[f], family[g], m, quad=quad)
        assert abs(r - closed_form) < 1e-10
    if m == 128:
        for name in ("x1", "x3"):
            assert tuynman_residual(family[name], m, quad=quad) < 1e-10


def test_hermiticity_for_real_functions(family, quad64):
    # real node values fill the D < 0 modes by conjugation: exactly Hermitian
    for name in ("x1", "x2", "x3", "x3sq", "x1x2"):
        for m in (4, 16, 64):
            T = toeplitz(family[name], m, quad=quad64)
            assert T.hermitian
            assert T.hermiticity_defect() == 0.0


@pytest.mark.parametrize("m, radial, angular", [
    (8, None, None), (33, None, None), (64, None, None),
    # coarse rules with A <= 2m: D mod A passes A/2 and aliases
    (16, 12, 20), (16, 12, 21), (16, 12, 9), (5, 4, 3), (1, 3, 2)])
def test_real_half_spectrum_matches_full_route(family, m, radial, angular):
    # real values through the half-spectrum route, folded modes and aliased
    # columns included, are the plain quadrature sum, and exactly Hermitian
    quad = build_quadrature(m, radial=radial, angular=angular)
    b = SectionBasis.build(m, quad)
    rng = np.random.default_rng(m)
    cases = [f(quad.nodes) for f in family.values()] + [rng.standard_normal(quad.nodes.size)]
    for values in cases:
        real = _assemble(b, values)
        assert np.max(np.abs(real - real.conj().T)) == 0.0
        assert np.max(np.abs(real - _dense_pairing(b, values))) < 1e-13
        # a complex array is split into T(Re) + i T(Im) through the same
        # route, so real values cast to complex give the same bits
        assert np.array_equal(_assemble(b, values.astype(complex)), real)
    values = rng.standard_normal(quad.nodes.size) + 1j * rng.standard_normal(quad.nodes.size)
    assert np.max(np.abs(_assemble(b, values) - _dense_pairing(b, values))) < 1e-13


def test_hermitian_flag_follows_structure(family, quad64):
    m = 8
    t1, t3 = toeplitz(family["x1"], m, quad=quad64), toeplitz(family["x3"], m, quad=quad64)
    assert (t1 + t3).hermitian and (t1 - t3).hermitian and (2.5 * t1).hermitian
    assert not (t1 @ t3).hermitian and not (1j * t1).hermitian
    assert not (t1 + 1j * t3).hermitian
    assert not OperatorMatrix(m, t1.mat).hermitian  # never inferred from entries
    assert abs(op_norm(t1 @ t3) - np.linalg.norm((t1 @ t3).mat, 2)) < 1e-14


def test_complex_symbol_has_no_flag(family, quad64):
    # a complex-valued symbol has no flag, and its norm takes the SVD
    x1, x2 = family["x1"], family["x2"]
    f = SmoothFunction("x1+ix2", fn=lambda z: x1.fn(z) + 1j * x2.fn(z))
    for m in (4, 16):
        T = toeplitz(f, m, quad=quad64)
        assert not T.hermitian
        assert op_norm(T) == np.linalg.norm(T.mat, 2)


def test_positivity(family, quad64):
    # x3^2 >= 0 on the sphere, so its compression is positive semidefinite
    for m in (4, 16):
        T = toeplitz(family["x3sq"], m, quad=quad64)
        assert np.min(np.linalg.eigvalsh(T.mat)) >= -1e-8


def test_norm_upper_bound(family, quad64):
    for name, f in family.items():
        sup = f.sup_norm()
        for m in (4, 16, 64):
            assert op_norm(toeplitz(f, m, quad=quad64)) <= sup + 1e-8


def test_linearity(family, quad64):
    f, g = family["x1"], family["x3"]
    m = 8
    combo = SmoothFunction(name="c", fn=lambda z: 2.0 * f.fn(z) - 0.5 * g.fn(z))
    lhs = toeplitz(combo, m, quad=quad64).mat
    rhs = 2.0 * toeplitz(f, m, quad=quad64).mat - 0.5 * toeplitz(g, m, quad=quad64).mat
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_rotation_equivariance(family, quad64):
    # x3 generates rotation about the poles; its Toeplitz matrix commutes
    # with every diagonal phase rotation of the monomial basis
    m = 10
    T = toeplitz(family["x3"], m, quad=quad64).mat
    phases = np.diag(np.exp(1j * 0.7 * np.arange(m + 1)))
    assert np.max(np.abs(T @ phases - phases @ T)) < 1e-10


def test_op_norm_against_svd(family, quad64):
    # op_norm is the spectral norm of the dense matrix
    for name in ("x1", "x3", "x1x2"):
        for m in (4, 16, 64):
            T = toeplitz(family[name], m, quad=quad64)
            assert abs(op_norm(T) - np.linalg.norm(T.mat, 2)) < 1e-9


def test_op_norm_diagonal_cases():
    d = OperatorMatrix(2, np.diag([0.5, -2.0, 1.0]).astype(complex))
    assert abs(op_norm(d) - 2.0) < 1e-12
    # the most negative eigenvalue sets the norm of a Hermitian operator
    assert op_norm(OperatorMatrix(2, d.mat, hermitian=True)) == 2.0
    eye = OperatorMatrix(2, np.eye(3, dtype=complex))
    assert abs(op_norm(eye) - 1.0) < 1e-12


# -- geometric quantization ----------------------------------------------------

def test_geom_quant_constant(family, quad64):
    # X_c = 0, so Q is multiplication by i*c
    m = 6
    Q = geom_quant(family["one"], m, quad=quad64)
    assert np.max(np.abs(Q.mat - 1j * np.eye(m + 1))) < 1e-10


def test_geom_quant_height_is_diagonal(family, quad64):
    m = 8
    Q = geom_quant(family["x3"], m, quad=quad64)
    off = Q.mat - np.diag(np.diag(Q.mat))
    assert np.max(np.abs(off)) < 1e-10
    # rotational equivariance fixes the exact diagonal: i (m - 2k) / m
    expected = 1j * np.array([(m - 2 * k) / m for k in range(m + 1)])
    assert np.max(np.abs(np.diag(Q.mat) - expected)) < 1e-10


def test_tuynman_identity_default_quadrature(family):
    for name in ("x1", "x3"):
        for m in (2, 4, 8, 16):
            assert tuynman_residual(family[name], m) <= 1e-6


def test_tuynman_constant_function(family):
    # the field vanishes and the correction term is zero
    assert tuynman_residual(family["one"], 4) <= 1e-10


def test_tuynman_structure_against_toeplitz(family, quad64):
    # Q_f equals i T_f plus the order-1/m correction: compare against the
    # uncorrected Toeplitz matrix to see the correction is really there
    m = 4
    f = family["x3"]
    Q = geom_quant(f, m, quad=quad64)
    T = toeplitz(f, m, quad=quad64)
    assert op_norm(Q - 1j * T) > 0.1  # the Laplacian term matters at small m


def test_tuynman_residual_is_quadrature_limited(family):
    # sub-exact radial rule: doubling the resolution collapses the residual
    for name in ("x1", "x3"):
        for m in (2, 4, 8, 16):
            r_coarse = max(1, (m + 5) // 4)
            quad_c = build_quadrature(m, radial=r_coarse)
            quad_f = build_quadrature(m, radial=2 * r_coarse)
            res_c = tuynman_residual(family[name], m, quad=quad_c)
            res_f = tuynman_residual(family[name], m, quad=quad_f)
            assert res_c >= 2.0 * res_f
            assert res_c > 1e-8  # the coarse rule is genuinely inexact


@pytest.mark.parametrize("m", [4, 16, 64])
def test_geom_quant_is_i_toeplitz_plus_covariant_part(family, quad64, m):
    b = level_basis(m, quad64)
    for name in ("x1", "x2", "x3", "x3sq", "x1x2"):
        f = family[name]
        rest = geom_quant(f, m, quad=quad64).mat - 1j * toeplitz(f, m, quad=quad64).mat
        assert np.max(np.abs(rest - _covariant_part(b, f))) <= 1e-15


def test_geom_quant_rejects_level_zero(family):
    with pytest.raises(ValueError, match="needs level m >= 1"):
        geom_quant(family["x3"], 0)


def test_tuynman_residual_rejects_level_zero(family):
    # the covariant part both share has no level-0 field: a ValueError, not
    # a complex division by zero
    with pytest.raises(ValueError, match="needs level m >= 1"):
        tuynman_residual(family["x3"], 0)


def test_basis_of_another_level_is_rejected(family):
    # a level-4 basis would give a 5 x 5 matrix labelled level 8, and a
    # Dirac residual of 0.444 where level 8 has 4m/(m+2)^2 = 0.32
    f, g = family["x1"], family["x2"]
    with pytest.raises(ValueError, match="level 4 given for level 8"):
        toeplitz(f, 8, basis=SectionBasis.build(4))
    assert np.array_equal(toeplitz(f, 8, basis=SectionBasis.build(8)).mat, toeplitz(f, 8).mat)
    assert abs(dirac_residual(f, g, 8) - 0.32) < 1e-12


def test_section_basis_values_shape(quad16):
    b = SectionBasis.build(5, quad16)
    assert profiles(b).shape == (quad16.radial_count, 6)
    assert b.dim == 6
    # rebuild the weighted section values and integrate conj(s_j) s_k
    values = section_values(b)
    assert values.shape == (6, quad16.nodes.size)
    gram = (values.conj() * quad16.weights) @ values.T
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12


def _dense_pairing(b, values):
    """<s_j, g s_k> as the plain quadrature sum over every node, with the
    weighted sections rebuilt from the radial profiles."""
    s = section_values(b)
    return (s.conj() * b.quad.weights * values) @ s.T


@pytest.mark.parametrize("m", [0, 1, 2, 3, 8, 31, 32, 64, 97])
def test_assembly_matches_dense_pairing(family, m):
    # the regrouped assembly is the same quadrature sum as the dense pairing:
    # every family function, and the complex node values geom_quant pairs
    # (the Hamiltonian field X^z, alone and times zbar/(1+|z|^2)); level 0
    # has an empty parity, and 97 is odd with folded modes past A/2
    quad = build_quadrature(max(m, 1))
    b = SectionBasis.build(m, quad)
    z = quad.nodes
    factor = 1.0 + np.abs(z) ** 2
    for f in family.values():
        xz = -1j * factor ** 2 * f.d_zbar(z) / max(m, 1)
        for values in (f(z), xz, xz * np.conj(z) / factor):
            assert np.max(np.abs(_assemble(b, values) - _dense_pairing(b, values))) < 1e-13


_REAL_FAMILY = ("one", "x1", "x2", "x3", "x3sq", "x1x2")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6), st.integers(1, 48))
def test_toeplitz_of_real_function_is_hermitian_and_bounded(family, quad64, coeffs, m):
    # real combinations of the family: T_f is Hermitian, and the compression
    # of multiplication by f has norm at most sup |f|
    fs = [family[name] for name in _REAL_FAMILY]
    f = SmoothFunction("combo", fn=lambda z: sum(c * g.fn(z) for c, g in zip(coeffs, fs)),
                       at_infinity=sum(c * g.at_infinity for c, g in zip(coeffs, fs)))
    T = toeplitz(f, m, quad=quad64)
    sup = f.sup_norm()
    assert T.hermiticity_defect() <= 1e-13 * max(1.0, sup)
    assert op_norm(T) <= sup * (1 + 1e-12) + 1e-13
