import cmath
import math

import numpy as np
import pytest

from projquant.projgeo import VarietyPresentation, is_on_variety, is_singular_point, weierstrass_cubic
from projquant.weierstrass import (
    DEFAULT_CUTOFF,
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

TAU_SQUARE = 1j
TAU_RECT = 2j
TAU_HEX = cmath.exp(1j * math.pi / 3)


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
    pair = eisenstein(Lattice(TAU_SQUARE), 48)
    assert abs(pair.g2 - 4 * varpi ** 4) < 1e-9
    assert abs(pair.g2 - 189.07272012923) < 1e-8


def test_rectangular_lattice_reality_and_smoothness():
    pair = eisenstein(Lattice(TAU_RECT))
    assert abs(pair.g2.imag) < 1e-12
    assert abs(pair.g3.imag) < 1e-12
    assert abs(pair.discriminant()) > 1.0


def test_two_routes_agree_within_lattice_tail():
    for tau in (TAU_SQUARE, TAU_RECT, TAU_HEX + 0.01):
        fast = eisenstein(Lattice(tau), 48)
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
    pair = eisenstein(Lattice(TAU_RECT), 24)
    refined = eisenstein(Lattice(TAU_RECT), 48)
    assert abs(refined.g2 - pair.g2) <= max(pair.tail_bound, 1e-12)
    assert isinstance(pair, EisensteinPair)
    assert pair.cutoff == 24


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
    assert ode_residual(Lattice(TAU_RECT), 0.3 + 0.2j, DEFAULT_CUTOFF) < 1e-6
    z2 = (1 + TAU_SQUARE) / 2 + 0.2
    assert ode_residual(Lattice(TAU_SQUARE), z2, DEFAULT_CUTOFF) < 1e-6


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
