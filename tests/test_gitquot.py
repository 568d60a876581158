import cmath
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projquant import gitquot
from projquant.gaussrat import GaussianRational
from projquant.poly import Polynomial
from projquant.projgeo import ProjPoint, format_point
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


def test_moment_rows_match_closed_form_and_vdot():
    from projquant.gitquot import _moment_rows

    rng = np.random.default_rng(8)
    V = rng.normal(size=(60, 4)) + 1j * rng.normal(size=(60, 4))
    V[rng.random((60, 4)) < 0.3] = 0.0
    V[~V.any(axis=1), 0] = 1.0
    # diagonal: sum w_j |v_j|^2 / (2 pi |v|^2)
    w = np.array([-2.0, 1.0, 3.0, 0.0])
    p = np.abs(V) ** 2
    closed = (p @ w) / (2 * math.pi * p.sum(axis=1))
    assert np.max(np.abs(_moment_rows(LinearAction.from_weights(w), V)[:, 0] - closed)) <= 1e-15
    # two non-diagonal anti-hermitian generators: a per-row vdot, and each row
    # alone through moment_map gives the same bits as in the stack
    B = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    action = LinearAction(n=3, generators=tuple(0.5 * (b - b.conj().T) for b in B))
    mu = _moment_rows(action, V)
    assert mu.shape == (60, 2)
    for v, row in zip(V, mu):
        want = [np.real(np.vdot(v, g @ v) / (2j * math.pi * np.vdot(v, v).real))
                for g in action.generators]
        assert np.max(np.abs(row - want)) <= 1e-15
        assert np.array_equal(moment_map(action, v), row)


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


@pytest.mark.parametrize("weights", [(3, 3, -1), (-1, 1), (-1, 2, 2)])
def test_orbit_dim_is_one_iff_the_support_carries_two_weights(weights):
    # at a fixed point A x - <x, A x> x / |x|^2 is rounding noise, no direction
    action = LinearAction.from_weights(weights)
    rng = np.random.default_rng(4)
    n = len(weights)
    for k in range(300):
        live = rng.random(n) < 0.5
        live[rng.integers(n)] = True
        if k % 2:
            x = pt(*(F(int(a), int(b)) if on else F(0) for on, a, b
                     in zip(live, rng.integers(-9, 10, n) | 1, rng.integers(1, 8, n))))
        else:
            x = np.where(live, rng.normal(size=n) + 1j * rng.normal(size=n), 0)
        want = len({w for w, on in zip(weights, live) if on}) > 1
        assert orbit_dim(action, x) == want


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



def _points(n, moduli=st.floats(0.1, 10.0)):
    """A point with a random support, moduli in [0.1, 10] (or as given) and
    random phases."""
    live = st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    mods = st.lists(moduli, min_size=n, max_size=n)
    phases = st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)
    return st.tuples(live, mods, phases).map(lambda c: np.array(
        [m * cmath.exp(1j * a) if on else 0.0 for on, m, a in zip(*c)]))


@st.composite
def weighted_points(draw, rows=None, moduli=st.floats(0.1, 10.0)):
    """Weights in [-3, 3] on 2-4 coordinates and a point, or a stack of 1
    to `rows` points."""
    n = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    if rows is None:
        return weights, draw(_points(n, moduli))
    return weights, np.array(draw(st.lists(_points(n, moduli), min_size=1, max_size=rows)))


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


@pytest.mark.parametrize("weights, x", [
    ((-1, 1), (1.0, 1e-13)), ((-1, 1), (1e-13, 1.0)), ((-1, 2), (1.0, 1e-19)),
    ((-2, 1, 3), (1.0, 1e-30, 1e-40))])
def test_orbit_search_at_extreme_modulus_ratios(weights, x):
    # the roots lie far outside |s| <= 14, s = ln(1e26) / 4 for the first
    action = LinearAction.from_weights(weights)
    met, witness = orbit_meets_zero_level(action, np.array(x, dtype=complex), tol=1e-9)
    assert met
    assert abs(moment_map(action, witness)[0]) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(weighted_points(moduli=st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)))
def test_orbit_search_over_wide_moduli(case):
    # moduli log-uniform in [1e-100, 1e100]: the verdict is the weight-hull
    # test, found before the 200-evaluation cap
    weights, x = case
    action = LinearAction.from_weights(weights)
    on_support = [w for w, c in zip(weights, x) if c != 0]
    with mock.patch.object(gitquot, "_ray_moment_map", wraps=gitquot._ray_moment_map) as evals:
        met, witness = orbit_meets_zero_level(action, x, tol=1e-9)
    assert met == (min(on_support) <= 0 <= max(on_support))
    assert evals.call_count < 200
    if met:
        assert abs(moment_map(action, witness)[0]) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(weighted_points(rows=8), st.sampled_from([1e-9, 1e-12]))
def test_orbit_search_batch_matches_rows(case, tol):
    from projquant.gitquot import _orbit_search, _witness

    weights, V = case
    action = LinearAction.from_weights(weights)
    found = _orbit_search(weights, V, tol)
    for v, s in zip(V, found):
        met, witness = orbit_meets_zero_level(action, v, tol=tol)
        assert met == (not np.isnan(s))
        if not met:
            continue
        batch_witness = _witness(weights, v, s)[1]
        for p in (witness, batch_witness):
            assert abs(moment_map(action, p)[0]) <= tol
        if np.isinf(s):  # a one-parameter limit
            limit = one_param_limit(weights, v, "0" if s < 0 else "inf")
            assert batch_witness.coords == witness.coords == limit.coords


@settings(max_examples=200, deadline=None)
@given(weighted_points(), st.floats(-14.0, 14.0))
def test_ray_closed_form_matches_moment_map(case, s):
    from projquant.gitquot import _ray_moment_map

    weights, x = case
    w = np.array(weights, dtype=float)
    action = LinearAction.from_weights(weights)
    with np.errstate(divide="ignore"):
        log_a = 2.0 * np.log(np.abs(x))
    direct = moment_map(action, x * np.exp(s * w))[0]
    scale = max(max(abs(w)) / (2 * math.pi), abs(direct))  # |mu| bound
    on_grid = _ray_moment_map(log_a[None, None, :], np.array([[s], [0.0]]), w)[0]
    mu, slope = (float(a[0]) for a in _ray_moment_map(log_a[None, :], np.array([[s]]), w))
    assert abs(on_grid[0, 0] - direct) <= 1e-13 * scale
    assert abs(mu - direct) <= 1e-13 * scale
    # central difference, error O(h^2 |mu'''|) + O(eps |mu| / h)
    h = 1e-5
    up, down = _ray_moment_map(log_a[None, :], np.array([[s + h], [s - h]]), w)[0]
    assert abs(slope - (up - down) / (2 * h)) <= 1e-7 * max(1.0, max(abs(w)) ** 2)


# -- stability ------------------------------------------------------------------------

def test_stability_verdicts():
    assert is_stable(HYPERBOLIC, pt(F(1), F(1)), INV)
    assert is_stable(HYPERBOLIC, pt(F(2), F(-3)), INV)
    assert not is_stable(HYPERBOLIC, pt(F(1), F(0)), INV)  # fixed point
    assert not is_stable(HYPERBOLIC, pt(F(0), F(1)), INV)


@pytest.mark.parametrize("weights", [(-1, 1), (-1, 2), (-1, 1, 1), (2, -1, -1), (0, 1), (0, 1, 1),
                                     (-1, 0, 1)])
def test_stability_is_hilbert_mumford(weights):
    # the supplied invariants generate the invariant ring for these weights,
    # so x is stable iff the least support weight is < 0 < the greatest; a
    # zero weight makes points semistable whose t -> 0 limit is semistable too
    from projquant.cli import _weight_invariants

    action = LinearAction.from_weights(weights)
    inv = _weight_invariants(action)
    rng = np.random.default_rng(6)
    n = len(weights)
    for k in range(200):
        live = rng.random(n) < 0.6
        live[rng.integers(n)] = True
        if k % 2:
            re, im, den = rng.integers(-9, 10, (3, n))
            x = pt(*(GaussianRational(F(int(a), int(abs(d)) + 1), F(int(b) | 1, 7)) if on else F(0)
                     for on, a, b, d in zip(live, re, im, den)))
        else:
            x = pt(*np.where(live, np.exp(rng.uniform(-3, 3, n) + 2j * np.pi * rng.random(n)), 0))
        support = [w for w, on in zip(weights, live) if on]
        assert is_stable(action, x, inv) == (min(support) < 0 < max(support))


def test_weight_invariants_keep_every_generator_of_degree_at_most_4():
    # for weights (-1, 0, 1) the invariant ring is generated by X1 and X0 X2;
    # keeping only the lowest degree lost X0 X2, so (1:0:1), whose orbit
    # closure meets the zero level, was not semistable
    from projquant.cli import _weight_invariants

    action = LinearAction.from_weights((-1, 0, 1))
    inv = _weight_invariants(action)
    assert sorted(str(P) for P in inv.polys) == sorted(
        str(P) for P in (Polynomial.variable(3, 1), Polynomial.monomial(3, (1, 0, 1))))
    assert orbit_meets_zero_level(action, pt(F(1), F(0), F(1)))
    assert semistable(pt(F(1), F(0), F(1)), inv)


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
    cases = [
        ((-1, 1, 1), [(math.sqrt(2), 1.0, 1.0), (math.sqrt(5), 1.0, 2.0), (1.0, 1.0, 0.0),
                      (1.0, 0.0, 1.0)]),
        # three support patterns; theta is read off the extremal pair only up
        # to 2 pi / 5 on the full support and 2 pi / 3 on (x0, x1)
        ((-2, 1, 3), [(math.sqrt(2), 1.0, 1.0), (math.sqrt(3), math.sqrt(3), 1.0),
                      (math.sqrt(3), 0.0, math.sqrt(2)), (1.0, math.sqrt(2), 0.0)])]
    for weights, moduli in cases:
        action = LinearAction.from_weights(weights)
        rng = np.random.default_rng(3)
        points = []
        for _ in range(6):
            for r in moduli:
                phi, theta = rng.uniform(0, 2 * np.pi, 2)  # a K-orbit and projective move
                phases = np.exp(1j * (phi + theta * np.array(weights, dtype=float)))
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


def _greedy_value_classes(inv, points, tol=1e-6):
    """Pairwise greedy reference for _invariant_value_classes: scalar
    evaluations, each vector compared with one class at a time."""
    classes = []
    for p in points:
        v = p.to_complex()
        nrm = float(np.linalg.norm(v))
        vec = [abs(F.evaluate(v)) / nrm ** F.degree() for F in inv.polys]
        if not any(max(abs(a - b) for a, b in zip(vec, c)) <= tol for c in classes):
            classes.append(vec)
    return len(classes)


def test_invariant_value_classes_against_pairwise_greedy():
    from projquant.gitquot import _invariant_value_classes

    action = LinearAction.from_weights((-1, 1, 1))
    y = [Polynomial.variable(3, j) for j in range(3)]
    inv = InvariantSet.certified([y[0] * y[1], y[0] * y[2]], action)
    tol = 1e-6

    def values(x):
        return np.array([abs(F.evaluate(x)) for F in inv.polys]) / np.linalg.norm(x) ** 2

    rng = np.random.default_rng(11)
    points = []
    for _ in range(6):
        base = rng.normal(size=3) + 1j * rng.normal(size=3)
        step = rng.normal(size=3)
        rate = np.max(np.abs(values(base + 1e-4 * step) - values(base))) / 1e-4
        # sup-norm distances 0.5, 0.9, 1.5 and 2 tol from the base along one
        # line: the first two join the base's class, the last two a new one
        points.append(pt(*base))
        points += [pt(*(base + c * tol / rate * step)) for c in (0.5, 0.9, 1.5, 2.0)]
    got = _invariant_value_classes(inv, points, tol)
    assert got == _greedy_value_classes(inv, points, tol) == 12
    rng.shuffle(points)
    assert _invariant_value_classes(inv, points, tol) == _greedy_value_classes(inv, points, tol)


@pytest.mark.parametrize("weights, count", [((-1, 1, 1), 64), ((0, 1), 8), ((1, 2), 3)])
def test_zero_level_samples_follow_single_ray_draws(weights, count):
    from projquant.gitquot import _zero_level_samples

    action = LinearAction.from_weights(weights)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = _zero_level_samples(action, rng, count)
    want, tries = [], 0
    while len(want) < count and tries < 50 * count:  # one ray per draw
        tries += 1
        x = ref.normal(size=len(weights)) + 1j * ref.normal(size=len(weights))
        met, witness = orbit_meets_zero_level(action, x, tol=1e-12)
        if met and abs(moment_map(action, witness)[0]) <= 1e-10:
            want.append(witness)
    assert len(got) == len(want) == (0 if weights == (1, 2) else count)
    for p, q in zip(got, want):
        assert np.allclose(p.to_complex(), q.to_complex(), rtol=1e-12, atol=0.0)
    assert rng.normal() == ref.normal()  # the same number of draws


class _ScriptedNormal:
    """Stands in for the generator: normal() hands out the scripted rays (as
    (2, n) real/imaginary pairs) in order and records the block sizes."""

    def __init__(self, rays):
        self.rays, self.sizes = list(rays), []

    def normal(self, size):
        self.sizes.append(size[0])
        block, self.rays = self.rays[:size[0]], self.rays[size[0]:]
        return np.array([[x.real, x.imag] for x in block])


def test_zero_level_samples_stop_at_last_accepted_ray():
    # random rays are accepted all-or-none (a generic ray of weights (-1, 1)
    # always meets the zero level), so only a scripted stream can mix them:
    # (0, 1) lies off the support of the weight -1 and is rejected
    from projquant.gitquot import _zero_level_samples

    good = [np.array([1.0 + k, 2.0 - 1j * k]) for k in range(5)]
    bad = np.array([0.0, 1.0 + 0j])
    fake = _ScriptedNormal([good[0], bad, good[1], bad, good[2], bad, good[3], good[4]]
                           + [good[0]] * 6)
    got = _zero_level_samples(LinearAction.from_weights((-1, 1)), fake, count=5)
    # 5 needed, 3 kept; 2 needed, 1 kept; 1 needed, 1 kept: nothing past good[4]
    assert fake.sizes == [5, 2, 1] and len(fake.rays) == 6
    want = [orbit_meets_zero_level(LinearAction.from_weights((-1, 1)), x, tol=1e-12)[1]
            for x in good]
    assert [p.coords for p in got] == [q.coords for q in want]


def test_orbit_search_reports_the_t_to_0_limit_first():
    # with every support weight 0 both limits lie on the zero level; the
    # t -> 0 limit (-inf) wins, as orbit_meets_zero_level documents
    from projquant.gitquot import _orbit_search

    V = np.array([[1.0, 0.0, 0.0], [0.3, -2j, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    s = _orbit_search((0, 0, 2), V, 1e-9)
    assert s[0] == s[1] == -np.inf
    assert np.isnan(s[2])  # support weight 2 only: mu = 1 / pi
    assert s[3] == -np.inf  # least support weight 0
    assert _orbit_search((-2, 0), np.array([[1.0, 1.0]]), 1e-9)[0] == np.inf


def _kirwan_reference(action, inv, n_samples, tol, seed):
    """kirwan_correspondence_check one point and one ray at a time."""
    rng = np.random.default_rng(seed)
    n = action.n + 1

    def draw():
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    points = [ProjPoint(tuple(draw())) for _ in range(max(0, n_samples - 2 * n))]
    points += [ProjPoint(tuple(1.0 if i == j else 0.0 for i in range(n))) for j in range(n)]
    while len(points) < n_samples:
        points.append(ProjPoint(tuple(draw())))
    rows, mismatches = [], 0
    for p in points:
        ss = semistable(p, inv, tol=1e-12)
        met, _ = orbit_meets_zero_level(action, p, tol=max(tol, 1e-10))
        mismatches += int(ss != met)
        rows.append({"point": format_point(p), "semistable": ss,
                     "orbit_meets_zero_level": met,
                     "mu": [float(c) for c in moment_map(action, p)],
                     "limit_t_to_0": format_point(one_param_limit(action.weights, p, "0")),
                     "limit_t_to_inf": format_point(one_param_limit(action.weights, p, "inf"))})
    zl = zero_level(action, points, tol=1e-7)
    phases, tries = [], 0
    while len(phases) < 64 and tries < 50 * 64:
        tries += 1
        met, witness = orbit_meets_zero_level(action, draw(), tol=1e-12)
        if met and abs(moment_map(action, witness)[0]) <= 1e-10:
            phases.append(witness)
    classes = count_k_orbit_classes(action, phases) if phases else 0
    inv_classes = _greedy_value_classes(inv, phases) if phases else 0
    return {
        "n_samples": len(points),
        "samples": rows,
        "equivalence_holds": mismatches == 0,
        "mismatches": mismatches,
        "zero_level_sampled": len(zl),
        "zero_level_all_semistable": all(semistable(p, inv, tol=1e-12) for p in zl + phases),
        "quotient_classes": classes,
        "invariant_value_classes": inv_classes,
        "quotient_matches_invariants": classes == inv_classes,
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("weights, monomials", [
    ((-1, 1), [(1, 1)]), ((-1, 2), [(2, 1)]), ((-1, 1, 1), [(1, 1, 0), (1, 0, 1)]),
    ((0, 1), [(1, 0)]), ((-1, 0, 1), [(0, 1, 0)])])
def test_kirwan_check_matches_pointwise_reference(weights, monomials, seed):
    action = LinearAction.from_weights(weights)
    inv = InvariantSet.certified(
        [Polynomial.monomial(len(weights), m) for m in monomials], action)
    report = kirwan_correspondence_check(action, inv, n_samples=60, tol=1e-9, seed=seed)
    assert report == _kirwan_reference(action, inv, 60, 1e-9, seed)
    assert report["equivalence_holds"] and report["zero_level_all_semistable"]


def test_kirwan_trivial_action_contract():
    report = kirwan_correspondence_check(TRIVIAL, None)
    assert report["equivalence_holds"] is None
    assert "not determined" in report["verdict"]
