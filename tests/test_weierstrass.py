import cmath
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projquant.projgeo import VarietyPresentation, is_on_variety, is_singular_point, weierstrass_cubic
from projquant.weierstrass import (
    EisensteinPair,
    Lattice,
    LatticePointError,
    eisenstein,
    eisenstein_lattice,
    embed,
    ode_residual,
    ode_residual_lattice,
    wp,
    wp_lattice,
    wp_prime,
    wp_prime_lattice,
)
from projquant.weierstrass import _power_tail

TAU_SQUARE = 1j
TAU_RECT = 2j
TAU_HEX = cmath.exp(1j * math.pi / 3)
EPS = sys.float_info.epsilon

#: every (a, b, c, d) in SL2(Z) with entries in [-5, 5]
SL2Z_5 = [g for g in itertools.product(range(-5, 6), repeat=4) if g[0] * g[3] - g[1] * g[2] == 1]


def relative_ode_residual(L, z):
    """|wp'^2 - 4 wp^3 + g2 wp + g3| over the sum of the moduli of its terms
    plus |Delta|^(1/2), a weight-6 scale that no lattice makes 0: on the
    square lattice g3 = 0, and at its half period (1 + i)/2 wp and wp'
    vanish together, so the moduli alone would divide rounding by ~0."""
    p, pp, e = wp(L, z), wp_prime(L, z), eisenstein(L)
    scale = (abs(pp) ** 2 + 4 * abs(p) ** 3 + abs(e.g2) * abs(p) + abs(e.g3)
             + abs(e.discriminant()) ** 0.5)
    return e.cubic_residual(p, pp) / scale


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(1.0 - 0.5j)
    with pytest.raises(ValueError):
        Lattice(0.5 + 0j)


def test_reduce_and_distance():
    L = Lattice(TAU_RECT)
    z = 3.4 + 5.1j
    zr = L.reduce(z)
    assert abs(zr.real) <= 0.5 + 1e-12
    assert abs(zr.imag) <= L.tau.imag / 2 + 1e-12
    assert L.distance_to_lattice(1.0 + 2j) == 0.0
    assert L.distance_to_lattice(0.5 + 1j) > 0.4


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.5, 2.0), st.floats(0.01, 2.0), st.floats(-0.49, 0.49),
       st.floats(-0.49, 0.49), st.integers(-20, 20), st.integers(-20, 20))
def test_reduce_periodicity(re_tau, im_tau, x, y, a, b):
    # a point inside the cell comes back from z + a + b tau to rounding
    L = Lattice(complex(re_tau, im_tau))
    z = complex(x, y * im_tau)
    shifted = L.reduce(z + a + b * L.tau)
    assert abs(shifted - z) <= 4 * EPS * (1 + abs(a) + abs(b) * abs(L.tau))
    assert abs(shifted.real) <= 0.5 and abs(shifted.imag) <= im_tau / 2


@pytest.mark.parametrize("tau", [2j, 1j, 0.5 + 0.9j, 0.2j, 0.1j, 0.31 + 0.1j, 0.05j,
                                 0.01j, 0.4 + 0.02j, 3.7 + 1e-3j, -0.123 + 1e-4j])
def test_reduction_to_fundamental_domain(tau):
    t, lam, q, terms = Lattice(tau).reduction
    # solve lam = c tau + d and t lam = a tau + b for integers, then check
    # that (a, b, c, d) is in SL2(Z) and maps tau to t
    c = round(lam.imag / tau.imag)
    d = round(lam.real - c * tau.real)
    a = round((t * lam).imag / tau.imag)
    b = round((t * lam).real - a * tau.real)
    assert a * d - b * c == 1
    assert abs(lam - (c * tau + d)) <= 4 * EPS * abs(lam)
    assert abs(t - (a * tau + b) / lam) <= 1e-12 * abs(t)
    assert abs(t.real) <= 0.5 and abs(t) >= 1 - 1e-12
    # |q'| <= exp(-pi sqrt 3) on the fundamental domain: 1 to 9 terms
    assert abs(q) == abs(cmath.exp(2j * math.pi * t)) and abs(q) <= 4.4e-3
    assert 1 <= terms <= 9
    if abs(tau.real) < 0.5 and abs(tau) >= 1:
        assert (a, b, c, d) == (1, 0, 0, 1) and t == tau and lam == 1


@pytest.mark.parametrize("tau", [2j, 1j, 0.5 + 0.9j, 0.2j, 0.1j, 0.31 + 0.1j, 0.05j,
                                 0.01j, 0.4 + 0.02j])
def test_relative_ode_residual_at_small_imaginary_part(tau):
    # the fixed 60-term series gave 7.6e-2 at 0.01i and 0.97 at 0.4 + 0.02i
    L = Lattice(tau)
    rng = np.random.default_rng(0)
    z = rng.uniform(0.02, 0.98, 200) + 1j * rng.uniform(0.02, 0.98, 200) * tau.imag
    z = z[L.distance_to_lattice(z) > 1e-7]
    assert np.max(relative_ode_residual(L, z)) <= 1e-14


def _reduced_parameter_condition(t):
    """How much a relative rounding of t moves the reduced tau': a change
    eps |t| of t moves tau' by eps |t| Im(tau') / Im(t)."""
    return abs(t) * Lattice(t).reduction[0].imag / t.imag


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(0.01, 2.0), st.sampled_from(SL2Z_5),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_modular_weights(re_tau, im_tau, gamma, x, y):
    # Z + Z tau = lam (Z + Z gamma tau): wp(z; tau) = lam^-2 wp(z / lam; gamma tau)
    # and wp' = lam^-3 wp'(z / lam; gamma tau), relative to the value plus the
    # natural scale h = (2 pi)^2 / 12 |lam_tau|^-2 of wp (h^(3/2) for wp'):
    # near a zero of wp or wp' rounding is absolute, of order eps h, and no
    # evaluation meets a bound relative to the value alone
    tau = complex(re_tau, im_tau)
    a, b, c, d = gamma
    lam = c * tau + d
    L, M = Lattice(tau), Lattice((a * tau + b) / lam)
    z = complex(x, y * im_tau)
    if L.distance_to_lattice(z) <= 1e-6:
        return
    # Lattice(gamma tau) is built from the rounded gamma tau, which moves the
    # reduced parameter by eps * kappa, and the point, |z / lam_tau| periods
    # of the reduced cell from 0, by eps * kappa * |z / lam_tau|.  Over 40,000
    # random cases, cell corners and z near 0 among them, and the corners
    # hypothesis finds, wp and wp' moved by at most 23 eps kappa
    # (1 + |z / lam_tau|); where 64 times that is below 1e-13 the bound is
    # 1e-13
    lam_tau = L.reduction[1]
    kappa = max(_reduced_parameter_condition(tau), _reduced_parameter_condition(M.tau))
    tol = max(1e-13, 64 * EPS * kappa * (1 + abs(z / lam_tau)))
    h = (2 * math.pi) ** 2 / 12 / abs(lam_tau) ** 2
    p, pp = wp(L, z), wp_prime(L, z)
    assert abs(p - wp(M, z / lam) / lam ** 2) <= tol * (abs(p) + h)
    assert abs(pp - wp_prime(M, z / lam) / lam ** 3) <= tol * (abs(pp) + h ** 1.5)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.01, 2.0), st.floats(-0.5, 0.5),
       st.floats(-0.5, 0.5))
def test_relative_ode_residual_property(re_tau, im_tau, x, y):
    L = Lattice(complex(re_tau, im_tau))
    z = complex(x, y * im_tau)
    if L.distance_to_lattice(z) <= 1e-8:
        return
    assert relative_ode_residual(L, z) <= 1e-14


@pytest.mark.parametrize("tau", [1e-3j, 0.4 + 1e-3j, 2e-3j, 0.123 + 1e-4j])
def test_tiny_imaginary_part_stays_finite(tau):
    # tau' = 1000i: u underflows near the top of the folded cell, and q'/u is
    # exponentiated directly instead of dividing 0 by 0
    L = Lattice(tau)
    z = np.array([0.3 + 0.4j * tau.imag, 0.7 + 0.01j * tau.imag, 0.5 + 0.5j * tau.imag])
    p, pp = wp(L, z), wp_prime(L, z)
    assert np.all(np.isfinite(p)) and np.all(np.isfinite(pp))
    assert np.max(relative_ode_residual(L, z)) <= 1e-14


@pytest.mark.parametrize("tau", [1j, 2j, 0.31 + 0.1j, 0.4 + 0.02j])
@pytest.mark.parametrize("z", [1e-5, 1e-7 * cmath.exp(0.7j), 3e-4j, -2e-6 + 1e-6j])
def test_near_pole_matches_laurent_series(tau, z):
    # wp = z^-2 + g2 z^2 / 20 + g3 z^4 / 28 + O(z^6); forming 1 - u by
    # subtraction would cancel to a relative error eps / |2 pi z| here
    L = Lattice(tau)
    e = eisenstein(L)
    p = 1 / z ** 2 + e.g2 * z ** 2 / 20 + e.g3 * z ** 4 / 28
    pp = -2 / z ** 3 + e.g2 * z / 10 + e.g3 * z ** 3 / 7
    assert abs(wp(L, z) - p) <= 8 * EPS * abs(p)
    assert abs(wp_prime(L, z) - pp) <= 8 * EPS * abs(pp)


# -- Eisenstein invariants -----------------------------------------------------

def test_g3_vanishes_on_square_lattice():
    pair = eisenstein(Lattice(TAU_SQUARE))
    assert abs(pair.g3) < 1e-10
    # the symmetric truncation respects multiplication by i exactly, so the
    # direct sums vanish as well
    direct = eisenstein_lattice(Lattice(TAU_SQUARE))
    assert abs(direct.g3) < 1e-12


def test_g2_vanishes_on_hexagonal_lattice():
    pair = eisenstein(Lattice(TAU_HEX))
    assert abs(pair.g2) < 1e-10


def test_square_lattice_g2_matches_lemniscatic_constant():
    # classical closed form: g2 = 4 * varpi^4 with
    # varpi = Gamma(1/4)^2 / (2 sqrt(2 pi)) the lemniscate constant
    varpi = math.gamma(0.25) ** 2 / (2.0 * math.sqrt(2.0 * math.pi))
    pair = eisenstein(Lattice(TAU_SQUARE))
    assert abs(pair.g2 - 4 * varpi ** 4) < 1e-11
    assert abs(pair.g2 - 189.07272012923) < 1e-8


def test_rectangular_lattice_reality_and_smoothness():
    pair = eisenstein(Lattice(TAU_RECT))
    assert abs(pair.g2.imag) < 1e-12
    assert abs(pair.g3.imag) < 1e-12
    assert abs(pair.discriminant()) > 1.0


def test_two_routes_agree_within_lattice_tail():
    for tau in (TAU_SQUARE, TAU_RECT, TAU_HEX + 0.01):
        fast = eisenstein(Lattice(tau))
        direct = eisenstein_lattice(Lattice(tau), 120)
        gap = max(abs(fast.g2 - direct.g2), abs(fast.g3 - direct.g3))
        assert gap < 10 * max(direct.tail_bound, 1e-12)


def test_direct_route_cauchy_rate():
    # |g2(2N) - g2(N)| should shrink like N^-2 for the lattice sums
    L = Lattice(TAU_RECT)
    diffs = []
    for N in (15, 30, 60):
        a = eisenstein_lattice(L, N).g2
        b = eisenstein_lattice(L, 2 * N).g2
        diffs.append(abs(b - a))
    assert diffs[0] > diffs[1] > diffs[2]
    assert 2.5 < diffs[0] / diffs[1] < 6.0
    assert 2.5 < diffs[1] / diffs[2] < 6.0


def test_tail_bound_contract():
    # a 40-term sum of the same q'-expansion moves g2 and g3 by no more than
    # the closed-form bound on the terms the derived length leaves out
    sig = lambda k, p: sum(d ** p for d in range(1, k + 1) if k % d == 0)
    k = np.arange(1, 41)
    for tau in (TAU_RECT, TAU_SQUARE, TAU_HEX + 0.01, 0.5j, 0.31 + 0.1j):
        L = Lattice(tau)
        pair = eisenstein(L)
        _, lam, q, terms = L.reduction
        qk = q ** k
        g2 = (4 * math.pi ** 4 / 3) * (1 + 240 * np.sum([sig(n, 3) for n in k] * qk)) / lam ** 4
        g3 = (8 * math.pi ** 6 / 27) * (1 - 504 * np.sum([sig(n, 5) for n in k] * qk)) / lam ** 6
        # the absolute floor of the N = 24 vs 48 comparison, widened only
        # where the weights |lam|^-4, |lam|^-6 make g2, g3 large (0.5i and
        # 0.31 + 0.1i): 8 roundings of the larger invariant
        rounding = max(1e-12, 8 * EPS * max(abs(g2), abs(g3)))
        assert abs(g2 - pair.g2) <= max(pair.tail_bound, rounding)
        assert abs(g3 - pair.g3) <= max(pair.tail_bound, rounding)
        assert isinstance(pair, EisensteinPair)
        assert pair.cutoff == terms
        # the derived length leaves a tail below rounding
        assert pair.tail_bound <= 10 * EPS * (4 * math.pi ** 6 / abs(lam) ** 6)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("qa", [4.4e-3, 1.9e-3, 1e-5, 1e-40])
def test_power_tail_bounds_the_omitted_terms(p, qa):
    for N in range(1, 12):
        k = np.arange(N + 1, 400, dtype=float)
        exact = np.sum(k ** p * qa ** k)
        assert exact <= _power_tail(qa, N, p) <= 1.1 * exact + 1e-300


# -- wp and wp' ------------------------------------------------------------------

def test_wp_periodicity():
    L = Lattice(TAU_RECT)
    z = 0.3 + 0.2j
    assert abs(wp(L, z + 1) - wp(L, z)) <= 1e-6
    assert abs(wp(L, z + L.tau) - wp(L, z)) <= 1e-6
    # direct sums at N=80 satisfy the looser contract too
    assert abs(wp_lattice(L, z + 1, 80) - wp_lattice(L, z, 80)) <= 1e-3


def test_wp_evenness_and_wp_prime_oddness():
    L = Lattice(TAU_RECT)
    for z in (0.3 + 0.2j, 0.11 - 0.43j, 0.7 + 0.9j):
        assert abs(wp(L, -z) - wp(L, z)) < 1e-10
        assert abs(wp_prime(L, -z) + wp_prime(L, z)) < 1e-10
        assert abs(wp_lattice(L, -z, 40) - wp_lattice(L, z, 40)) < 1e-10
        assert abs(wp_prime_lattice(L, -z, 40) + wp_prime_lattice(L, z, 40)) < 1e-10


def test_wp_routes_agree():
    L = Lattice(TAU_RECT)
    z = 0.3 + 0.2j
    assert abs(wp(L, z) - wp_lattice(L, z, 240)) < 1e-5
    assert abs(wp_prime(L, z) - wp_prime_lattice(L, z, 240)) < 1e-4



@pytest.mark.parametrize("tau", [TAU_SQUARE, TAU_RECT, TAU_HEX])
def test_wp_on_arrays(tau):
    L = Lattice(tau)
    rng = np.random.default_rng(7)
    # near 0 the lattice sums at N = 240 meet the tolerances of test_wp_routes_agree
    re, im = rng.uniform(0.05, 0.35, (2, 3, 4)) * rng.choice([-1.0, 1.0], (2, 3, 4))
    z = re + 1j * im
    p, pp = wp(L, z), wp_prime(L, z)
    assert p.shape == pp.shape == z.shape
    for zi, pi, ppi in zip(z.ravel(), p.ravel(), pp.ravel()):
        # each element is the scalar call, and both agree with the lattice sums
        p1, pp1 = wp(L, complex(zi)), wp_prime(L, complex(zi))
        assert type(p1) is complex and type(pp1) is complex
        assert abs(pi - p1) <= 1e-15 * abs(p1) and abs(ppi - pp1) <= 1e-15 * abs(pp1)
        assert abs(pi - wp_lattice(L, zi, 240)) < 1e-5
        assert abs(ppi - wp_prime_lattice(L, zi, 240)) < 1e-4
    res = ode_residual(L, z)
    assert res.shape == z.shape and np.all(res < 1e-6)
    with pytest.raises(LatticePointError):
        wp(L, np.array([0.3 + 0.2j, 1.0 + tau]))

def test_pole_guard():
    L = Lattice(TAU_RECT)
    for z in (0.0, 1.0, 3 + 4j, 1e-9 + 0j):
        with pytest.raises(LatticePointError):
            wp(L, z)
        with pytest.raises(LatticePointError):
            wp_prime(L, z)


# -- differential equation ---------------------------------------------------------

def test_ode_residual_reference_points():
    assert ode_residual(Lattice(TAU_RECT), 0.3 + 0.2j) < 1e-6
    z2 = (1 + TAU_SQUARE) / 2 + 0.2
    assert ode_residual(Lattice(TAU_SQUARE), z2) < 1e-6
    assert relative_ode_residual(Lattice(TAU_RECT), 0.3 + 0.2j) <= 1e-14
    assert relative_ode_residual(Lattice(TAU_SQUARE), z2) <= 1e-14
    # the double zero of wp and wp' on the square lattice
    assert relative_ode_residual(Lattice(TAU_SQUARE), (1 + TAU_SQUARE) / 2) <= 1e-14


def test_ode_residual_direct_route_refines():
    L = Lattice(TAU_RECT)
    z = 0.3 + 0.2j
    r1 = ode_residual_lattice(L, z, 30)
    r2 = ode_residual_lattice(L, z, 60)
    assert r2 < r1  # truncation-dominated error


def test_ode_residual_many_points():
    rng = np.random.default_rng(0)
    for tau in (TAU_SQUARE, TAU_RECT, TAU_HEX + 0.01):
        L = Lattice(tau)
        count = 0
        while count < 10:
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95) * L.tau.imag)
            if L.distance_to_lattice(z) < 1e-3:
                continue
            assert ode_residual(L, z) < 1e-6
            count += 1


# -- embedding ----------------------------------------------------------------------

def test_embed_lattice_class_goes_to_infinity():
    L = Lattice(TAU_RECT)
    assert embed(L, 0.0).coords == (0.0, 1.0, 0.0)
    assert embed(L, 1 + 2j).coords == (0.0, 1.0, 0.0)


def test_embedded_points_on_cubic():
    L = Lattice(TAU_RECT)
    pair = eisenstein(L)
    cubic = VarietyPresentation([weierstrass_cubic(pair.g2.real, pair.g3.real)],
                                claimed_dim=1)
    assert is_on_variety(cubic, embed(L, 0.4), tol=1e-5)
    for z in (0.25, 0.3 + 0.2j, 0.1 + 1.1j):
        assert is_on_variety(cubic, embed(L, z), tol=1e-5)


def test_embed_parity():
    L = Lattice(TAU_RECT)
    z = 0.37 + 0.41j
    p, q = embed(L, z), embed(L, -z)
    assert abs(complex(p.coords[0]) - complex(q.coords[0])) < 1e-9
    assert abs(complex(p.coords[1]) + complex(q.coords[1])) < 1e-9
    assert p.coords[2] == q.coords[2] == 1.0


def test_image_discriminant_nonzero_across_tau():
    for tau in (TAU_SQUARE, TAU_RECT, TAU_HEX + 0.01, 0.3 + 1.7j, -0.4 + 0.9j):
        assert abs(eisenstein(Lattice(tau)).discriminant()) > 1e-6


def test_no_singular_points_on_embedded_cubic():
    # cross-module consistency: fifty embedded samples are all regular
    L = Lattice(TAU_RECT)
    pair = eisenstein(L)
    V = VarietyPresentation([weierstrass_cubic(pair.g2.real, pair.g3.real)],
                            claimed_dim=1)
    rng = np.random.default_rng(1)
    count = 0
    while count < 50:
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95) * 2)
        if L.distance_to_lattice(z) < 1e-2:
            continue
        p = embed(L, z)
        if not is_on_variety(V, p, tol=1e-7):
            continue  # membership tolerance for the rank precheck
        assert not is_singular_point(V, p)
        count += 1
