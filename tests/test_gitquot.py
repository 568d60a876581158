import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projquant.gaussrat import GaussianRational
from projquant.poly import Polynomial
from projquant.projgeo import ProjPoint
from projquant.gitquot import (
    EmptyInvariantSetError,
    InexactGeneratorsError,
    InvariantSet,
    LinearAction,
    NotDiagonalError,
    count_k_orbit_classes,
    infinitesimal_invariance,
    infinitesimal_invariance_numeric,
    is_stable,
    k_orbit_equivalent,
    kirwan_correspondence_check,
    moment_map,
    one_param_limit,
    orbit_dim,
    orbit_meets_zero_level,
    semistable,
    zero_level,
)

F = Fraction
X0 = Polynomial.variable(2, 0)
X1 = Polynomial.variable(2, 1)

HYPERBOLIC = LinearAction.from_weights((-1, 1))
EQUAL = LinearAction.from_weights((1, 1))
TRIVIAL = LinearAction.trivial(1)
INV = InvariantSet.certified([X0 * X1], HYPERBOLIC)


def pt(*coords):
    return ProjPoint(tuple(coords))


# -- action construction ------------------------------------------------------

def test_generators_are_antihermitian():
    for action in (HYPERBOLIC, EQUAL, TRIVIAL):
        for g in action.generators:
            assert np.max(np.abs(g + g.conj().T)) < 1e-12


def test_non_antihermitian_rejected():
    with pytest.raises(ValueError):
        LinearAction(n=1, generators=(np.array([[1.0, 0], [0, 1.0]]),))


def test_group_dimensions():
    assert HYPERBOLIC.k_dim == 1
    assert TRIVIAL.k_dim == 0


# -- moment map -----------------------------------------------------------------

def test_moment_map_closed_form():
    # weights (-1, 1): mu = (|x1|^2 - |x0|^2) / (2 pi |x|^2)
    for coords in [(1.0, 1.0), (1.0, 0.0), (0.5, 2.0), (1 + 1j, 2 - 1j)]:
        v = np.array(coords, dtype=complex)
        mu = moment_map(HYPERBOLIC, pt(*coords))
        expected = (abs(v[1]) ** 2 - abs(v[0]) ** 2) / (2 * math.pi * np.vdot(v, v).real)
        assert abs(mu[0] - expected) < 1e-14


def test_moment_map_scale_invariance():
    p = np.array([1.3 - 0.4j, 0.2 + 2.1j])
    base = moment_map(HYPERBOLIC, p)
    for lam in (2.0, -3.5, 1j, 0.3 - 0.7j, 1e6):
        assert np.max(np.abs(moment_map(HYPERBOLIC, lam * p) - base)) < 1e-12


def test_moment_map_is_real_and_equivariant():
    rng = np.random.default_rng(5)
    A = HYPERBOLIC.generators[0]
    for _ in range(20):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = moment_map(HYPERBOLIC, x)
        t = rng.uniform(-3, 3)
        vals, vecs = np.linalg.eig(A * t)
        moved = (vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)) @ x
        assert np.max(np.abs(moment_map(HYPERBOLIC, moved) - base)) < 1e-10


def test_moment_map_rejects_zero_vector():
    with pytest.raises(ValueError):
        moment_map(HYPERBOLIC, np.zeros(2, dtype=complex))


def test_zero_level_examples():
    pts = [pt(1.0, 1.0), pt(1.0, 0.0), pt(0.0, 1.0), pt(1.0, 1j)]
    zl = zero_level(HYPERBOLIC, pts, tol=1e-12)
    assert [p.coords for p in zl] == [(1.0, 1.0), (1.0, 1j)]
    # equal weights: mu is the same nonzero constant everywhere
    assert zero_level(EQUAL, pts, tol=1e-6) == []
    mus = {round(moment_map(EQUAL, p)[0], 12) for p in pts}
    assert len(mus) == 1
    # trivial action: everything sits on the zero level
    assert zero_level(TRIVIAL, pts, tol=0.0) == pts


# -- invariance ---------------------------------------------------------------------

def test_invariance_certificates():
    assert infinitesimal_invariance(X0 * X1, HYPERBOLIC)
    assert not infinitesimal_invariance(X0 ** 2, HYPERBOLIC)
    assert infinitesimal_invariance(X0 ** 3 + X0 * X1 ** 2, TRIVIAL)


def test_invariance_requires_exact_generators():
    bare = LinearAction(n=1, generators=(np.diag([-1j, 1j]),))
    with pytest.raises(InexactGeneratorsError):
        infinitesimal_invariance(X0 * X1, bare)
    # the numeric fallback still gives the (non-certified) verdict
    assert infinitesimal_invariance_numeric(X0 * X1, bare)
    assert not infinitesimal_invariance_numeric(X0 ** 2, bare)


def test_certified_set_rejects_non_invariants():
    with pytest.raises(ValueError):
        InvariantSet.certified([X0 ** 2], HYPERBOLIC)
    with pytest.raises(ValueError):
        InvariantSet.certified([Polynomial.constant(2, 3)], HYPERBOLIC)


def test_invariance_integral_cross_check():
    # exp(tA)-flow invariance on random samples, for the certified invariant
    rng = np.random.default_rng(1)
    A = HYPERBOLIC.generators[0]
    F_poly = X0 * X1
    for _ in range(20):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = rng.uniform(-2, 2)
        vals, vecs = np.linalg.eig(A * t)
        moved = (vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)) @ x
        assert abs(F_poly.evaluate(moved) - F_poly.evaluate(x)) < 1e-8


# -- semistability ---------------------------------------------------------------------

def test_semistable_examples():
    assert semistable(pt(F(1), F(1)), INV)
    assert not semistable(pt(F(1), F(0)), INV)
    assert not semistable(pt(F(0), F(1)), INV)
    assert semistable(pt(2.0 + 1j, -0.5), INV, tol=1e-12)


def test_semistable_needs_invariants():
    with pytest.raises(EmptyInvariantSetError):
        semistable(pt(F(1), F(1)), InvariantSet(polys=(), certificates=()))


def test_semistable_exact_gaussian_point():
    i = GaussianRational(0, 1)
    assert semistable(ProjPoint((GaussianRational(1), i)), INV)


# -- orbits -----------------------------------------------------------------------------

def test_orbit_dim_examples():
    assert orbit_dim(HYPERBOLIC, pt(1.0, 1.0)) == 1
    assert orbit_dim(HYPERBOLIC, pt(1.0, 0.0)) == 0
    assert orbit_dim(TRIVIAL, pt(1.0, 1.0)) == 0
    assert orbit_dim(TRIVIAL, pt(1.0, 0.0)) == 0


def test_orbit_dim_bounded_by_group_dim():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert orbit_dim(HYPERBOLIC, x) <= HYPERBOLIC.k_dim


def test_one_param_limits():
    assert one_param_limit((-1, 1), pt(1.0, 1.0), "0").coords == (1.0, 0.0)
    assert one_param_limit((-1, 1), pt(1.0, 1.0), "inf").coords == (0.0, 1.0)
    fixed = pt(1.0, 0.0)
    assert one_param_limit((-1, 1), fixed, "0").coords == fixed.coords
    # idempotence: the limit is a fixed point of the subgroup
    lim = one_param_limit((-1, 1), pt(2.0, 3.0), "inf")
    again = one_param_limit((-1, 1), lim, "inf")
    assert again.coords == lim.coords


def test_orbit_meets_zero_level():
    met, witness = orbit_meets_zero_level(HYPERBOLIC, pt(1.0, 1.0), tol=1e-10)
    assert met
    assert abs(moment_map(HYPERBOLIC, witness)[0]) <= 1e-10
    met, _ = orbit_meets_zero_level(HYPERBOLIC, pt(3.0, 0.2j), tol=1e-10)
    assert met
    for fixed in (pt(1.0, 0.0), pt(0.0, 1.0)):
        met, _ = orbit_meets_zero_level(HYPERBOLIC, fixed, tol=1e-10)
        assert not met


def test_orbit_search_rejects_nondiagonal():
    gen = np.array([[0, 1.0], [-1.0, 0]], dtype=complex)  # real rotation
    action = LinearAction(n=1, generators=(gen,), weights=None)
    with pytest.raises(NotDiagonalError):
        orbit_meets_zero_level(action, pt(1.0, 1.0))



@st.composite
def weighted_points(draw):
    """Weights in [-3, 3] on 2-4 coordinates and a point with a random
    support, moduli in [0.1, 10] and random phases."""
    n = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    live = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    mods = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n))
    x = np.array([m * cmath.exp(1j * a) if on else 0.0
                  for m, a, on in zip(mods, phases, live)])
    return weights, x


@settings(max_examples=200, deadline=None)
@given(weighted_points(),
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
def test_orbit_search_properties(case, lam):
    weights, x = case
    action = LinearAction.from_weights(weights)
    on_support = [w for w, c in zip(weights, x) if c != 0]
    met, witness = orbit_meets_zero_level(action, x, tol=1e-9)
    # Kirwan/Hilbert-Mumford: 0 in the convex hull of the weights on the support
    assert met == (min(on_support) <= 0 <= max(on_support))
    if met:
        assert abs(moment_map(action, witness)[0]) <= 1e-9
    else:
        assert witness is None
    assert orbit_meets_zero_level(action, lam * x, tol=1e-9)[0] == met


@settings(max_examples=200, deadline=None)
@given(weighted_points(), st.floats(-14.0, 14.0))
def test_ray_closed_form_matches_moment_map(case, s):
    from projquant.gitquot import _ray_moment_map

    weights, x = case
    action = LinearAction.from_weights(weights)
    on_grid, at = _ray_moment_map(action, x)
    direct = moment_map(action, x * np.exp(s * np.array(weights, dtype=float)))[0]
    scale = max(max(abs(w) for w in weights) / (2 * math.pi), abs(direct))  # |mu| bound
    assert abs(at(s) - direct) <= 1e-13 * scale
    assert abs(on_grid(np.array([s, 0.0]))[0] - direct) <= 1e-13 * scale


# -- stability ------------------------------------------------------------------------

def test_stability_verdicts():
    assert is_stable(HYPERBOLIC, pt(F(1), F(1)), INV)
    assert is_stable(HYPERBOLIC, pt(F(2), F(-3)), INV)
    assert not is_stable(HYPERBOLIC, pt(F(1), F(0)), INV)  # fixed point
    assert not is_stable(HYPERBOLIC, pt(F(0), F(1)), INV)


# -- K-orbit classes ---------------------------------------------------------------------

def test_k_orbit_equivalence_on_zero_level():
    a = pt(1.0, 1.0)
    b = pt(np.exp(0.3j), np.exp(-0.9j))  # same moduli, arbitrary phases
    c = pt(1.0, 2.0)
    rescaled = pt(2.0 * np.exp(1j), 2.0 * np.exp(1j))  # projective rescaling of a
    assert k_orbit_equivalent(HYPERBOLIC, a, b)
    assert not k_orbit_equivalent(HYPERBOLIC, a, c)
    assert count_k_orbit_classes(HYPERBOLIC, [a, b, rescaled]) == 1


def test_quotient_of_hyperbolic_zero_level_is_a_point():
    rng = np.random.default_rng(0)
    phases = rng.uniform(0, 2 * np.pi, size=24)
    pts = [pt(np.exp(1j * a), np.exp(1j * b))
           for a, b in zip(phases[:12], phases[12:])]
    assert count_k_orbit_classes(HYPERBOLIC, pts) == 1



def test_k_orbit_classes_against_pairwise_greedy():
    action = LinearAction.from_weights((-1, 1, 1))
    rng = np.random.default_rng(3)
    moduli = [(math.sqrt(2), 1.0, 1.0), (math.sqrt(5), 1.0, 2.0), (1.0, 1.0, 0.0),
              (1.0, 0.0, 1.0)]
    points = []
    for _ in range(6):
        for r in moduli:
            phi, theta = rng.uniform(0, 2 * np.pi, 2)  # a K-orbit and projective move
            phases = np.exp(1j * (phi + theta * np.array([-1.0, 1.0, 1.0])))
            points.append(pt(*(2.0 * np.array(r) * phases)))
    points.append(pt(math.sqrt(2), 1.0, 1j))  # same moduli, a phase profile of its own
    points.append(pt(*points[0].coords[:2], 0.0))  # agrees with points[0] on its support
    reps = []
    for p in points:
        if not any(k_orbit_equivalent(action, r, p) for r in reps):
            reps.append(p)
    assert count_k_orbit_classes(action, points) == len(reps) == 6
    gen = np.array([[0, 1.0, 0], [-1.0, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(NotDiagonalError):
        count_k_orbit_classes(LinearAction(n=2, generators=(gen,), weights=(0, 0, 0)), [])

# -- the correspondence check --------------------------------------------------------------

def test_kirwan_correspondence_hyperbolic():
    report = kirwan_correspondence_check(HYPERBOLIC, INV, n_samples=200,
                                         tol=1e-9, seed=0)
    assert report["n_samples"] == 200
    assert report["equivalence_holds"] is True
    assert report["mismatches"] == 0
    assert report["zero_level_all_semistable"] is True
    assert report["quotient_classes"] == 1
    assert report["invariant_value_classes"] == 1
    assert report["quotient_matches_invariants"] is True
    # the two fixed points are in the sample and fail both sides
    fixed_rows = [r for r in report["samples"]
                  if r["point"] in ("(1.0 : 0.0)", "(0.0 : 1.0)")]
    assert len(fixed_rows) == 2
    for row in fixed_rows:
        assert row["semistable"] is False
        assert row["orbit_meets_zero_level"] is False
        assert row["limit_t_to_0"] == row["point"]  # fixed points stay put
    # a generic sample records both one-parameter limits
    generic = next(r for r in report["samples"] if r["semistable"])
    assert generic["limit_t_to_0"].endswith(": 0.0)")
    assert generic["limit_t_to_inf"].startswith("(0.0 :")


def test_kirwan_trivial_action_contract():
    report = kirwan_correspondence_check(TRIVIAL, None)
    assert report["equivalence_holds"] is None
    assert "not determined" in report["verdict"]
