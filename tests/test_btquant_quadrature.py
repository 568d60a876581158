import math
from functools import lru_cache

import numpy as np
import pytest

from projquant.btquant import build_quadrature, geom_quant, toeplitz
from projquant.btquant.chart import hermitian_weight
from projquant.btquant.quadrature import gauss_legendre
from projquant.btquant.sections import SectionBasis, gram_entry_closed_form


@lru_cache(maxsize=4)
def _gauss(nodes: int):
    """numpy's rule, as an independent reference."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    return u, w


def radial_moment_oracle(k: int, m: int, nodes: int = 2000) -> float:
    """Independent 1-D quadrature for int_0^inf r^(2k+1) (1+r^2)^(-m-2) dr.

    Uses r = tan(u) on (0, pi/2) with a dense Gauss-Legendre rule; entirely
    separate from the production compactification, so it can certify the
    Beta-integral closed form and the Gram matrix at once.
    """
    u, w = _gauss(nodes)
    u = 0.25 * math.pi * (u + 1.0)
    w = 0.25 * math.pi * w
    r = np.tan(u)
    vals = r ** (2 * k + 1) * (1 + r ** 2) ** (-(m + 2)) / np.cos(u) ** 2
    return float(np.sum(w * vals))


def beta_closed_form(k: int, m: int) -> float:
    return 0.5 * math.factorial(k) * math.factorial(m - k) / math.factorial(m + 1)


def test_radial_oracle_matches_beta_function():
    for m in (2, 5, 9):
        for k in range(m + 1):
            assert abs(radial_moment_oracle(k, m) - beta_closed_form(k, m)) < 1e-12


def _endpoint_moment_errors(t, v, near=16):
    """|(j+1)/2 sum_k v_k ((1-t_k)/2)^j - 1| for j < 2n.

    In double, the rounding of (1-t)/2 grows j-fold in the power; at large j
    the nodes nearest t = -1 carry the sum, so their terms are summed exactly:
    the float nodes and weights are dyadic rationals, t = p/q and v = w/2^s
    with q a power of two, so (1-t)/2 = (q-p)/2q and each term is an integer
    over a power of two.  The exact part is rounded once.
    """
    b, far = (1.0 - t[near:]) / 2.0, v[near:]
    nodes = [(q - p, q.bit_length()) for p, q in map(float.as_integer_ratio, t[:near])]
    weights = [(w, s.bit_length() - 1) for w, s in map(float.as_integer_ratio, v[:near])]
    powers = [1] * near
    for j in range(2 * t.size):
        shifts = [s + e * j for (_, e), (_, s) in zip(nodes, weights)]
        top = max(shifts)
        exact = sum(w * pw << (top - sh) for (w, _), pw, sh in zip(weights, powers, shifts))
        yield abs((exact / (1 << top) + np.sum(far * b ** j)) * (j + 1) / 2.0 - 1.0)
        powers = [pw * num for pw, (num, _) in zip(powers, nodes)]


def test_gauss_legendre_exact_at_the_endpoints():
    # ((1-t)/2)^j peaks at t = -1, where the section profiles of low k live;
    # the n-point rule must integrate it for every j < 2n to rounding
    for n in (134, 135, 262, 1030, 1031):
        assert max(_endpoint_moment_errors(*gauss_legendre(n))) < 5e-14


@pytest.mark.parametrize("n, nodes, weights", [
    (1, [0.0], [2.0]),
    (2, [-1 / math.sqrt(3), 1 / math.sqrt(3)], [1.0, 1.0]),
    (3, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], [5 / 9, 8 / 9, 5 / 9]),
])
def test_gauss_legendre_small_rules(n, nodes, weights):
    t, v = gauss_legendre(n)
    assert np.max(np.abs(t - nodes)) <= 2.3e-16
    assert np.max(np.abs(v - weights)) <= 5e-16


def test_gauss_legendre_nodes_match_numpy():
    # leggauss is documented as tested up to degree 100
    for n in range(1, 101):
        t, _ = gauss_legendre(n)
        ref_t, _ = _gauss(n)
        assert np.all(np.diff(t) > 0)
        assert np.max(np.abs(t - ref_t)) <= 4.5e-16


def test_gauss_legendre_is_shared_and_read_only():
    t, v = gauss_legendre(38)
    again = gauss_legendre(38)
    assert again[0] is t and again[1] is v
    for a in (t, v):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_total_mass(quad64):
    assert abs(quad64.total_mass() - 2 * math.pi) < 1e-10


def test_angular_orthogonality(quad64):
    z = quad64.nodes
    m = 10
    hm = hermitian_weight(z, m)
    for j, k in [(0, 1), (2, 5), (1, 9), (0, 10)]:
        val = np.sum(quad64.weights * hm * np.conj(z) ** j * z ** k)
        assert abs(val) < 1e-12


def _section_values(basis, quad):
    """s_k (1+|z|^2)^(-m/2) at every node, rebuilt from the radial profiles."""
    theta = np.angle(quad.nodes.reshape(quad.radial_count, quad.angular_count)[0])
    k = np.arange(basis.dim)
    vals = basis.profiles.T[:, :, None] * np.exp(1j * k[:, None, None] * theta)
    return vals.reshape(basis.dim, -1)


def test_gram_matches_beta_oracle(quad64):
    r = np.abs(quad64.nodes.reshape(quad64.radial_count, -1)[:, 0])
    for m in (3, 8, 16):
        basis = SectionBasis.build(m, quad64)
        s = _section_values(basis, quad64)
        gram = (s.conj() * quad64.weights) @ s.T
        assert np.max(np.abs(gram - np.eye(m + 1))) < 1e-12
        for k in range(m + 1):
            c = basis.profiles[:, k] / (r ** k * (1 + r ** 2) ** (-m / 2))
            assert np.max(np.abs(c - c[0])) < 1e-12 * c[0]
            assert abs(c[0] ** 2 * gram_entry_closed_form(k, k, m) - 1) < 1e-12
            assert abs(c[0] ** 2 * 4 * math.pi * radial_moment_oracle(k, m) - 1) < 1e-10


def test_section_profiles_finite_at_large_level():
    # z^k and the binomial coefficients overflow long before m = 1024; the
    # log-space profiles must stay finite and normalized
    m = 1024
    basis = SectionBasis.build(m)
    assert basis.profiles.shape == (basis.quad.radial_count, m + 1)
    assert np.all(np.isfinite(basis.profiles))
    norms = basis.radial_weights @ basis.profiles ** 2
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_default_rule_exactness_flag(quad64):
    assert quad64.is_exact_for(64)
    coarse = build_quadrature(8, radial=3, angular=10)
    assert not coarse.is_exact_for(8)


#: degree in x1, x2, x3 of each standard_family symbol
FAMILY_DEGREES = {"one": 0, "x1": 1, "x2": 1, "x3": 1, "x3sq": 2, "x1x2": 2}


@pytest.mark.parametrize("d", [1, 2])
def test_exactness_flag_follows_the_derived_bound(family, quad16, d):
    # the minimal rule 2R - 1 >= m + d, A >= m + d + 1 reproduces the default
    # rule's matrices of every family symbol of degree <= d; one radius or
    # one angle fewer moves the Toeplitz matrices, and the flag says so
    m = 16
    names = [name for name, deg in FAMILY_DEGREES.items() if deg <= d]

    def matrices(quad):
        basis = SectionBasis.build(m, quad)
        return [(toeplitz(family[n], m, basis=basis).mat, geom_quant(family[n], m, basis=basis).mat)
                for n in names]

    ref = matrices(quad16)
    R, A = (m + d + 2) // 2, m + d + 1
    minimal = build_quadrature(m, radial=R, angular=A)
    assert minimal.is_exact_for(m, d)
    for (t, g), (t_ref, g_ref) in zip(matrices(minimal), ref):
        assert np.max(np.abs(t - t_ref)) < 1e-13
        assert np.max(np.abs(g - g_ref)) < 1e-13
    for radial, angular in ((R - 1, A), (R, A - 1)):
        smaller = build_quadrature(m, radial=radial, angular=angular)
        assert not smaller.is_exact_for(m, d)
        moved = max(np.max(np.abs(t - t_ref)) for (t, _), (t_ref, _) in zip(matrices(smaller), ref))
        assert moved > 1e-7


def test_integrate_constant(quad16):
    ones = np.ones_like(quad16.nodes, dtype=complex)
    assert abs(quad16.integrate(ones) - 2 * math.pi) < 1e-10


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        build_quadrature(0)
    with pytest.raises(ValueError):
        build_quadrature(4, radial=0)
    with pytest.raises(ValueError):
        build_quadrature(4, angular=1)


def test_weights_positive(quad64):
    assert np.all(quad64.weights > 0)
