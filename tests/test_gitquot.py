import cmath
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from projquant import gitquot
from projquant.gaussrat import GaussianRational
from projquant.poly import Polynomial, monomials_of_degree
from projquant.projgeo import ProjPoint, format_point
from projquant.gitquot import (
    EmptyInvariantSetError,
    InvariantSet,
    LinearAction,
    infinitesimal_invariance,
    is_stable,
    kirwan_correspondence_check,
    moment_map,
    one_param_limit,
    orbit_dim,
    orbit_meets_zero_level,
    semistable,
)
from reference_routes import float_rank, invariant_growth_degree, moment_rows, zero_level

F = Fraction
X0 = Polynomial.variable(2, 0)
X1 = Polynomial.variable(2, 1)

HYPERBOLIC = LinearAction.from_weights((-1, 1))
EQUAL = LinearAction.from_weights((1, 1))
TRIVIAL = LinearAction.from_weights((0, 0))
INV = InvariantSet.certified([X0 * X1], HYPERBOLIC)


def pt(*coords):
    return ProjPoint(tuple(coords))


def generator(action):
    """The anti-Hermitian generator i*diag(w) of the action, as a matrix."""
    return np.diag(1j * np.array(action.weights, dtype=float))


# -- action construction ------------------------------------------------------

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
        assert abs(moment_map(HYPERBOLIC, lam * p)[0] - base[0]) < 1e-12


def test_moment_map_is_real_and_equivariant():
    rng = np.random.default_rng(5)
    A = generator(HYPERBOLIC)
    for _ in range(20):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = moment_map(HYPERBOLIC, x)
        t = rng.uniform(-3, 3)
        vals, vecs = np.linalg.eig(A * t)
        moved = (vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)) @ x
        assert abs(moment_map(HYPERBOLIC, moved)[0] - base[0]) < 1e-10


def test_moment_rows_match_closed_form_and_vdot():
    rng = np.random.default_rng(8)
    V = rng.normal(size=(60, 4)) + 1j * rng.normal(size=(60, 4))
    V[rng.random((60, 4)) < 0.3] = 0.0
    V[~V.any(axis=1), 0] = 1.0
    # diagonal: sum w_j |v_j|^2 / (2 pi |v|^2)
    w = np.array([-2.0, 1.0, 3.0, 0.0])
    p = np.abs(V) ** 2
    closed = (p @ w) / (2 * math.pi * p.sum(axis=1))
    action = LinearAction.from_weights(w)
    mu = moment_rows(action, V)
    assert mu.shape == (60, 1)
    assert np.max(np.abs(mu[:, 0] - closed)) <= 1e-15
    # a per-row vdot with the generator matrix, and each row alone through
    # the scalar moment_map, a 1-tuple
    for v, row, want in zip(V, mu, closed):
        vdot = np.real(np.vdot(v, generator(action) @ v) / (2j * math.pi * np.vdot(v, v).real))
        assert abs(row[0] - vdot) <= 1e-15
        got, = moment_map(action, v)
        assert type(got) is float and abs(got - want) <= 1e-15


@pytest.mark.parametrize("weights, bad", [((1.5, -1.9), "1.5"), ((-1, "2"), "'2'")])
def test_from_weights_rejects_non_integral_weights(weights, bad):
    with pytest.raises(ValueError, match=f"got {bad}$"):
        LinearAction.from_weights(weights)
    assert LinearAction.from_weights((2.0, -1)).weights == (2, -1)


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


def test_certified_set_rejects_non_invariants():
    with pytest.raises(ValueError):
        InvariantSet.certified([X0 ** 2], HYPERBOLIC)
    with pytest.raises(ValueError):
        InvariantSet.certified([Polynomial.constant(2, 3)], HYPERBOLIC)


def test_invariance_integral_cross_check():
    # exp(tA)-flow invariance on random samples, for the certified invariant
    rng = np.random.default_rng(1)
    A = generator(HYPERBOLIC)
    F_poly = X0 * X1
    for _ in range(20):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = rng.uniform(-2, 2)
        vals, vecs = np.linalg.eig(A * t)
        moved = (vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)) @ x
        assert abs(F_poly.evaluate(moved) - F_poly.evaluate(x)) < 1e-8


@st.composite
def weighted_polynomials(draw):
    """Weights in [-3, 3] on 2-4 coordinates and a polynomial of degree <= 2
    with 1-4 terms, half the time drawn from the invariant monomials only."""
    n = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    pool = [a for d in range(3) for a in monomials_of_degree(n, d)]
    if draw(st.booleans()):
        pool = [a for a in pool if sum(e * w for e, w in zip(a, weights)) == 0]
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-5, 5).filter(bool)),
                          min_size=1, max_size=4))
    return weights, Polynomial(n, {a: 0 for a, _ in terms} | dict(terms))


def _scaled(F, weights, t, x):
    """F(t^w . x) in Fraction arithmetic."""
    return F.evaluate([Fraction(t) ** w * c for w, c in zip(weights, x)])


@settings(max_examples=100, deadline=None)
@given(weighted_polynomials(),
       st.lists(st.fractions(-9, 9, max_denominator=9), min_size=4, max_size=4))
def test_invariance_certificate_is_exact_invariance(case, point):
    # F(t^w . x) - F(x) has degree <= 2 in each variable, so it is the zero
    # polynomial iff it vanishes on the grid {1, 2, 3}^n (a nonzero one of
    # degree <= d in each variable cannot vanish on a product of (d+1)-sets)
    weights, F = case
    certified = infinitesimal_invariance(F, LinearAction.from_weights(weights))
    grid = list(itertools.product(range(1, 4), repeat=len(weights)))
    for t in (2, 3):
        assert certified == all(_scaled(F, weights, t, x) == F.evaluate(x) for x in grid)
        if certified:  # and at a random rational point
            x = point[:len(weights)]
            assert _scaled(F, weights, t, x) == F.evaluate(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4), st.data())
def test_certificate_fails_with_one_weight_sign_flipped(weights, data):
    # a term X^a with a_j > 0 changes weight by -2 a_j w_j when w_j flips sign
    from projquant.cli import _weight_invariants

    action = LinearAction.from_weights(weights)
    inv = _weight_invariants(action)
    assume(inv is not None)
    F = data.draw(st.sampled_from(inv.polys))
    moved = [j for j, w in enumerate(weights) if w and any(a[j] for a in F.terms)]
    assume(moved)
    j = data.draw(st.sampled_from(moved))
    flipped = LinearAction.from_weights([-w if k == j else w for k, w in enumerate(weights)])
    assert infinitesimal_invariance(F, action)
    assert not infinitesimal_invariance(F, flipped)
    with pytest.raises(ValueError, match="not invariant"):
        InvariantSet.certified([F], flipped)


# -- semistability ---------------------------------------------------------------------

def test_semistable_examples():
    assert semistable(pt(F(1), F(1)), INV)
    assert not semistable(pt(F(1), F(0)), INV)
    assert not semistable(pt(F(0), F(1)), INV)
    assert semistable(pt(2.0 + 1j, -0.5), INV)
    # the float threshold 1e-12 on (|X0 X1| / |x|^2)^(1/2): 5e-12 reads
    # semistable and 5e-13 does not, so a 10x move either way fails here
    assert semistable((2.5e-23, 1.0), INV)
    assert not semistable((2.5e-25, 1.0), INV)


@pytest.mark.parametrize("weights, x", [((-1, 1), (0.3j, 1.0)), ((-40, 41), (1e-4, 1.0)),
                                        ((-200, 201), (1e-3, 1.0 - 2j)), ((-1, 0, 5), (1e-5, 0, 1j))])
def test_invariant_scale_is_a_weighted_geometric_mean(weights, x):
    # a monomial reads prod (|x_k| / |x|)^(a_k / d): on the scale of a
    # coordinate whatever its degree d, so one threshold serves every degree;
    # X0^201 X1^200 at (1e-3 : 1 - 2i) is below 1e-600 before the root
    from projquant.cli import _weight_invariants
    from projquant.gitquot import _coords, _invariant_moduli, _log_terms

    inv = _weight_invariants(LinearAction.from_weights(weights))
    u = np.abs(np.array(x, dtype=complex)) / np.linalg.norm(np.array(x, dtype=complex))
    want = []
    for P in inv.polys:
        (m, _), = P.terms.items()
        want.append(math.prod(u[k] ** (a / P.degree()) for k, a in enumerate(m)))
    v = _coords(x)
    got = list(_invariant_moduli(_log_terms(inv), v))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert semistable(pt(*x), inv)


def test_semistable_needs_invariants():
    with pytest.raises(EmptyInvariantSetError):
        semistable(pt(F(1), F(1)), InvariantSet(polys=()))


def test_semistable_exact_gaussian_point():
    i = GaussianRational(0, 1)
    assert semistable(ProjPoint((GaussianRational(1), i)), INV)


@pytest.mark.parametrize("scale", [1e-200, 1e200, 2.0 ** -700, 2.0 ** 700],
                         ids=["1e-200", "1e200", "2^-700", "2^700"])
def test_verdicts_hold_at_extreme_scales(scale):
    # every squared modulus underflows or overflows at these scales; mu and
    # the verdicts read as at (1 : 1) and (3 : 1), and is_stable passes
    # through the limits (scale : 0) and (0 : scale); mu is bit for bit the
    # same when the scale is a power of two, else within rounding of 3 scale
    for x in [(1.0, 1.0), (3.0, 1.0)]:
        y = (scale * x[0], scale * x[1])
        (mu,), (got,) = moment_map(HYPERBOLIC, x), moment_map(HYPERBOLIC, y)
        assert got == mu if math.frexp(scale)[0] == 0.5 else abs(got - mu) <= 1e-16
        assert semistable(y, INV) and is_stable(HYPERBOLIC, y, INV)
        assert orbit_meets_zero_level(HYPERBOLIC, y)[0]


@pytest.mark.parametrize("big, small", [
    ((1.5e308 + 1.5e308j, 1e308), (1.5 + 1.5j, 1.0)),  # |v_0| is not a float
    ((1.5e308, 1.5e308), (1.5, 1.5)),  # each |v_j| is, their hypot is not
])
def test_verdicts_hold_past_the_float_range_of_a_modulus(big, small):
    # the point is small scaled by 1e308, up to rounding; every verdict, and
    # the witness, read as there
    assert semistable(big, INV) == semistable(small, INV) is True
    assert is_stable(HYPERBOLIC, big, INV) == is_stable(HYPERBOLIC, small, INV) is True
    (met, witness), (met_small, witness_small) = (orbit_meets_zero_level(HYPERBOLIC, x)
                                                  for x in (big, small))
    assert met == met_small is True
    assert max(abs(a - b) for a, b in zip(witness.coords, witness_small.coords)) <= 1e-15
    assert abs(moment_map(HYPERBOLIC, witness)[0]) <= 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
@pytest.mark.parametrize("call", [lambda x: moment_map(HYPERBOLIC, x), lambda x: semistable(x, INV),
                                  lambda x: orbit_meets_zero_level(HYPERBOLIC, x)],
                         ids=["moment_map", "semistable", "orbit_meets_zero_level"])
def test_non_finite_coordinates_are_rejected(call, bad):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        call((bad, 1.0))


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
@given(weighted_points())
def test_orbit_dim_matches_the_svd_rank(case):
    # the float route: rank of the generator direction A x taken modulo the
    # line C x, its singular values counted against ||A|| ||x||
    weights, x = case
    action = LinearAction.from_weights(weights)
    A = generator(action)
    nrm2 = np.vdot(x, x).real
    row = A @ x - (np.vdot(x, A @ x) / nrm2) * x
    assert orbit_dim(action, x) == float_rank([row], np.linalg.norm(A) * math.sqrt(nrm2))


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
    # mu = -1/(2 pi) at this fixed point: tol bounds a witness, not a limit
    assert orbit_meets_zero_level(HYPERBOLIC, pt(1.0, 0.0), tol=0.5) == (False, None)



@settings(max_examples=200, deadline=None)
@given(weighted_points(),
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
def test_orbit_search_properties(case, lam):
    weights, x = case
    action = LinearAction.from_weights(weights)
    on_support = [w for w, c in zip(weights, x) if c != 0]
    for tol in (1e-9, 1e-12):
        met, witness = orbit_meets_zero_level(action, x, tol=tol)
        # Kirwan/Hilbert-Mumford: 0 in the convex hull of the weights on the support
        assert met == (min(on_support) <= 0 <= max(on_support))
        if met:
            assert abs(moment_map(action, witness)[0]) <= tol
        else:
            assert witness is None
        assert orbit_meets_zero_level(action, lam * x, tol=tol)[0] == met


@pytest.mark.parametrize("tol", [0.0, 1e-300, -1.0])
def test_orbit_search_raises_when_tol_is_unreachable(tol):
    # the support weights (-1, 2, 3) straddle 0, so the closure meets the
    # zero level; a search that cannot reach tol says so instead of
    # answering False
    action = LinearAction.from_weights((-1, 2, 3))
    with pytest.raises(ArithmeticError, match=rf"\|mu\| = .* above tol = {tol!r}"):
        orbit_meets_zero_level(action, (1 + 0.3j, 2.0, 0.7), tol=tol)
    # a limit witness has mu = 0 exactly: a zero least support weight meets
    assert orbit_meets_zero_level(LinearAction.from_weights((0, 2, 3)), (1.0, 2.0, 0.7),
                                  tol=tol)[1].coords == (1.0, 0j, 0j)


@pytest.mark.parametrize("weights, x", [
    ((-1, 1), (1.0, 1e-13)), ((-1, 1), (1e-13, 1.0)), ((-1, 2), (1.0, 1e-19)),
    ((-2, 1, 3), (1.0, 1e-30, 1e-40)), ((-1, 1, -2), (1e9, 1.0, 1.0)),
    ((-100, 1), (1e-300, 1e300))])
def test_orbit_search_at_extreme_modulus_ratios(weights, x):
    # the roots lie far outside |s| <= 14, s = ln(1e26) / 4 for the first;
    # at the start of (-1, 1, -2) the slope is exactly 0, so the midpoint
    # follows; at the root of the last e^(100 s) overflows, the witness not
    action = LinearAction.from_weights(weights)
    met, witness = orbit_meets_zero_level(action, np.array(x, dtype=complex), tol=1e-9)
    assert met
    assert abs(moment_map(action, witness)[0]) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(weighted_points(moduli=st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)))
def test_orbit_search_over_wide_moduli(case):
    # moduli log-uniform in [1e-100, 1e100]: the verdict is the weight-hull
    # test, found before the 200-evaluation cap; a root strictly inside the
    # orbit is confirmed by at least one evaluation
    weights, x = case
    action = LinearAction.from_weights(weights)
    on_support = [w for w, c in zip(weights, x) if c != 0]
    with mock.patch.object(gitquot, "_ray_moment_map", wraps=gitquot._ray_moment_map) as evals:
        met, witness = orbit_meets_zero_level(action, x, tol=1e-9)
    assert met == (min(on_support) <= 0 <= max(on_support))
    assert evals.call_count < 200
    if min(on_support) < 0 < max(on_support):
        assert evals.call_count >= 1
    if met:
        assert abs(moment_map(action, witness)[0]) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(weighted_points(rows=8))
def test_zero_level_samples_are_the_per_point_witnesses(case):
    # the sampler's points are, bit for bit, the witnesses that
    # orbit_meets_zero_level returns for the same rays one at a time, the
    # rows of V drawn in turn; a witness at a limit is that one-parameter limit
    from projquant.gitquot import _zero_level_samples

    weights, V = case
    action = LinearAction.from_weights(weights)
    rows = [tuple(map(complex, x)) for x in V]
    rays = itertools.cycle(rows)
    with mock.patch.object(gitquot, "_ray", lambda rng, n: next(rays)):
        got = _zero_level_samples(action, random.Random(0))
    accepted = []
    for x in rows:
        met, witness = orbit_meets_zero_level(action, x, tol=1e-12)
        on_support = [w for w, c in zip(weights, x) if c != 0]
        if 0 in (min(on_support), max(on_support)):
            limit = one_param_limit(weights, x, "0" if min(on_support) == 0 else "inf")
            assert witness.coords == limit.coords
        if met:
            assert abs(moment_map(action, witness)[0]) <= 1e-12
        accepted.append(witness.coords if met and abs(moment_map(action, witness)[0]) <= 1e-10
                        else None)
    # the k-th ray is row k mod len(rows), for at most 50 * 64 rays
    want = [w for w in (accepted[k % len(rows)] for k in range(50 * 64)) if w is not None]
    assert got == want[:64]


@settings(max_examples=200, deadline=None)
@given(weighted_points(), st.floats(-14.0, 14.0))
def test_ray_closed_form_matches_moment_map(case, s):
    from projquant.gitquot import _ray_moment_map

    weights, x = case
    w = np.array(weights, dtype=float)
    action = LinearAction.from_weights(weights)
    log_a = [2.0 * math.log(abs(c)) if c else -math.inf for c in x]
    direct = moment_map(action, x * np.exp(s * w))[0]
    scale = max(max(abs(w)) / (2 * math.pi), abs(direct))  # |mu| bound
    mu, slope = _ray_moment_map(weights, log_a, s)
    assert abs(mu - direct) <= 1e-13 * scale
    # central difference, error O(h^2 |mu'''|) + O(eps |mu| / h)
    h = 1e-5
    up, down = (_ray_moment_map(weights, log_a, t)[0] for t in (s + h, s - h))
    assert abs(slope - (up - down) / (2 * h)) <= 1e-7 * max(1.0, max(abs(w)) ** 2)


# -- stability ------------------------------------------------------------------------

def test_stability_verdicts():
    assert is_stable(HYPERBOLIC, pt(F(1), F(1)), INV)
    assert is_stable(HYPERBOLIC, pt(F(2), F(-3)), INV)
    assert not is_stable(HYPERBOLIC, pt(F(1), F(0)), INV)  # fixed point
    assert not is_stable(HYPERBOLIC, pt(F(0), F(1)), INV)
    assert not is_stable(HYPERBOLIC, (1e-170, 1.0), INV)  # |X0 X1| / |x|^2 = 1e-170


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
    # for weights (-1, 0, 1) the invariant ring is generated by X1 (the zero
    # weight) and X0 X2 (the one pair of opposite signs), both of low degree:
    # the pair set is exactly these two, in that order
    from projquant.cli import _weight_invariants

    inv = _weight_invariants(LinearAction.from_weights((-1, 0, 1)))
    assert inv.polys == (Polynomial.variable(3, 1), Polynomial.monomial(3, (1, 0, 1)))


# -- the correspondence check --------------------------------------------------------------

def test_kirwan_correspondence_hyperbolic():
    report = kirwan_correspondence_check(HYPERBOLIC, INV, n_samples=200, seed=0)
    assert report["n_samples"] == 200
    assert report["equivalence_holds"] is True
    assert report["mismatches"] == 0
    assert report["zero_level_all_semistable"] is True
    assert report["quotient_dim"] == 0
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


def test_zero_level_cut_is_pinned():
    # the report counts a sample with |mu| <= 1e-7 on the zero level: after
    # the two coordinate points, two scripted samples (1 : r), mu = (r^2 - 1) / (2 pi (1 + r^2)), read 5e-8
    # and 5e-7, so a 10x move of the cut either way changes the count; the
    # zero-level rays are all (1 : 1)
    xs = [(1.0 + 0j, complex(math.sqrt((1 + c) / (1 - c)))) for c in (math.tau * 5e-8,
                                                                      math.tau * 5e-7)]
    rays = itertools.chain(xs, itertools.repeat((1.0 + 0j, 1.0 + 0j)))
    with mock.patch.object(gitquot, "_ray", lambda rng, n: next(rays)):
        report = kirwan_correspondence_check(HYPERBOLIC, INV, n_samples=4)
    assert [r["mu"][0] for r in report["samples"][2:]] == pytest.approx([5e-8, 5e-7], rel=1e-6)
    assert report["zero_level_sampled"] == 1 and report["zero_level_all_semistable"]


def test_quotient_of_hyperbolic_zero_level_is_a_point():
    # Kempf-Ness: the quotient is the zero level mod K; points of the zero
    # level of (-1, 1) are stable, with one-dimensional orbits in the line
    # P^1, so the quotient has dimension 1 - 1 = 0, as the report states
    from projquant.gitquot import _zero_level_samples

    report = kirwan_correspondence_check(HYPERBOLIC, INV, n_samples=20, seed=0)
    zl = _zero_level_samples(HYPERBOLIC, random.Random(0))
    assert len(zl) == 64
    for x in zl:
        assert is_stable(HYPERBOLIC, x, INV)
        assert report["quotient_dim"] == HYPERBOLIC.n - orbit_dim(HYPERBOLIC, x)


@pytest.mark.parametrize("weights, dim", [
    ((-1, 1), 0), ((-1, 2), 0), ((-1, 1, 1), 1), ((-1, 0, 1), 1), ((2, -1, -1), 1), ((0, 1), 0),
    ((0, 1, 1), 0), ((0, 0, 0), 2), ((-7, -2, 3, 11, 0, 1), 4)])
def test_quotient_dim_is_the_growth_degree_of_invariant_monomials(weights, dim):
    # the second route counts the degree-d monomials with a . w = 0 exactly;
    # an off-by-one dimension lands 0.75 or more away from its estimate
    from projquant.cli import _weight_invariants

    action = LinearAction.from_weights(weights)
    report = kirwan_correspondence_check(action, _weight_invariants(action), n_samples=10)
    assert report["quotient_dim"] == dim
    assert abs(invariant_growth_degree(weights) - dim) < 0.25


@pytest.mark.parametrize("weights", [(-5, 7), (-3, 5), (-1, 0, 5), (-2, -1, 3), (-3, -1, 2, 3),
                                     (-7, -2, 3, 11, 0, 1), (-1, 0, 1), (-1, 1, 1), (2, -1, -1)])
def test_weight_invariants_decide_every_support(weights):
    # at the indicator point of a support S a monomial is nonzero exactly
    # when its support lies in S, so the invariant verdict there is exact;
    # it must be the orbit verdict w_lo <= 0 <= w_hi on S
    from projquant.cli import _weight_invariants

    action = LinearAction.from_weights(weights)
    inv = _weight_invariants(action)
    n = len(weights)
    for size in range(1, n + 1):
        for S in itertools.combinations(range(n), size):
            x = ProjPoint(tuple(F(int(k in S)) for k in range(n)))
            met = min(weights[k] for k in S) <= 0 <= max(weights[k] for k in S)
            assert orbit_meets_zero_level(action, x)[0] == met
            assert semistable(x, inv) == met, S


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("weights", [(-5, 7), (-9, 11), (-40, 41), (-200, 201), (-3, 2, -4, 5)])
def test_kirwan_check_holds_at_high_invariant_degree(weights, seed):
    # the largest pair invariants of these weights have degree 9 to 401;
    # their moduli at Gaussian points must not fall below the fixed threshold
    # with the degree (at 1e-12 on |F| / |x|^deg, (-40, 41) failed every
    # sample, and (-9, 11) any sample with |x0|^2 / |x|^2 below 7e-3)
    from projquant.cli import _weight_invariants

    action = LinearAction.from_weights(weights)
    report = kirwan_correspondence_check(action, _weight_invariants(action), seed=seed)
    assert report["n_samples"] == 200
    assert report["mismatches"] == 0 and report["equivalence_holds"]
    assert report["zero_level_all_semistable"]


@pytest.mark.parametrize("weights", [(-1, 1, 1), (0, 1), (1, 2)])
def test_zero_level_samples_follow_single_ray_draws(weights):
    from projquant.gitquot import _ray, _zero_level_samples

    action = LinearAction.from_weights(weights)
    rng, ref = random.Random(5), random.Random(5)
    got = _zero_level_samples(action, rng)
    want, tries = [], 0
    while len(want) < 64 and tries < 50 * 64:  # one ray per draw
        tries += 1
        x = _ray(ref, len(weights))
        met, witness = orbit_meets_zero_level(action, x, tol=1e-12)
        if met and abs(moment_map(action, witness)[0]) <= 1e-10:
            want.append(witness)
    assert len(got) == len(want) == (0 if weights == (1, 2) else 64)
    for p, q in zip(got, want):
        assert np.allclose(p, q.to_complex(), rtol=1e-12, atol=0.0)
    assert rng.random() == ref.random()  # the same number of draws


def test_zero_level_samples_stop_at_last_accepted_ray():
    # rays are drawn one at a time until 64 are accepted or 50 * 64 are
    # drawn; random rays are accepted all-or-none (a generic ray of weights
    # (-1, 1) always meets the zero level), so only a scripted stream can
    # mix them: (0, 1) lies off the support of the weight -1 and is rejected
    from projquant.gitquot import _zero_level_samples

    action = LinearAction.from_weights((-1, 1))
    good = [(complex(1.0 + k), 2.0 - 1j * k) for k in range(64)]
    bad = (0j, 1.0 + 0j)
    rays = iter([r for g in good for r in (g, bad)][:-1] + [good[0]] * 6)
    with mock.patch.object(gitquot, "_ray", lambda rng, n: next(rays)):
        got = _zero_level_samples(action, random.Random(0))
        assert len(list(rays)) == 6  # nothing drawn past good[63]
        rays = iter([bad] * (50 * 64 + 1))
        assert _zero_level_samples(action, random.Random(0)) == []
        assert len(list(rays)) == 1  # at most 50 rays per point asked for
    assert got == [orbit_meets_zero_level(action, x, tol=1e-12)[1].coords for x in good]


def test_rays_are_standard_complex_normal():
    # Box-Muller from the stream's uniforms: real and imaginary parts
    # standard normal and uncorrelated; at 20000 draws each sample moment
    # below is within 0.04 of its value, a 5-sigma or wider margin
    from projquant.gitquot import _ray

    rng = random.Random(11)
    z = np.array([c for _ in range(10000) for c in _ray(rng, 2)])
    for part in (z.real, z.imag):
        assert abs(part.mean()) < 0.04 and abs(part.var() - 1.0) < 0.04
        assert abs(np.mean(part ** 4) - 3.0) < 0.3
    assert abs(np.mean(z.real * z.imag)) < 0.04


def test_orbit_search_reports_the_t_to_0_limit_first():
    # with every support weight 0 both limits lie on the zero level; the
    # t -> 0 limit wins, as orbit_meets_zero_level documents
    action = LinearAction.from_weights((0, 0, 2))
    for v in [(1.0, 0.0, 0.0), (0.3, -2j, 0.0), (1.0, 0.0, 1.0)]:  # least support weight 0
        met, witness = orbit_meets_zero_level(action, v)
        assert met and witness.coords == one_param_limit(action.weights, v, "0").coords
    # support weight 2 only: mu = 1 / pi
    assert orbit_meets_zero_level(action, (0.0, 0.0, 1.0)) == (False, None)
    met, witness = orbit_meets_zero_level(LinearAction.from_weights((-2, 0)), (1.0, 1.0))
    assert met and witness.coords == (0j, 1.0 + 0j)  # greatest support weight 0: t -> infinity


def _kirwan_reference(action, inv, n_samples, seed):
    """kirwan_correspondence_check one point and one ray at a time, each orbit
    verdict from the root search of orbit_meets_zero_level, the quotient's
    dimension from the growth of the invariant monomial count."""
    rng = random.Random(seed)
    n = action.n + 1

    def draw():
        return gitquot._ray(rng, n)

    points = [ProjPoint(tuple(draw())) for _ in range(max(0, n_samples - 2 * n))]
    points += [ProjPoint(tuple(1.0 if i == j else 0.0 for i in range(n))) for j in range(n)]
    while len(points) < n_samples:
        points.append(ProjPoint(tuple(draw())))
    rows, mismatches = [], 0
    for p in points:
        ss = semistable(p, inv)
        met, _ = orbit_meets_zero_level(action, p, tol=1e-9)
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
        try:
            met, witness = orbit_meets_zero_level(action, draw(), tol=1e-12)
        except ArithmeticError:  # the sampler skips a ray whose search misses
            continue
        if met and abs(moment_map(action, witness)[0]) <= 1e-10:
            phases.append(witness)
    return {
        "n_samples": len(points),
        "samples": rows,
        "equivalence_holds": mismatches == 0,
        "mismatches": mismatches,
        "zero_level_sampled": len(zl),
        "zero_level_all_semistable": all(semistable(p, inv) for p in zl + phases),
        "quotient_dim": round(invariant_growth_degree(action.weights)),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("weights, monomials", [
    ((-1, 1), [(1, 1)]), ((-1, 2), [(2, 1)]), ((-1, 1, 1), [(1, 1, 0), (1, 0, 1)]),
    ((0, 1), [(1, 0)]), ((-1, 0, 1), [(0, 1, 0)])])
def test_kirwan_check_matches_pointwise_reference(weights, monomials, seed):
    action = LinearAction.from_weights(weights)
    inv = InvariantSet.certified(
        [Polynomial.monomial(len(weights), m) for m in monomials], action)
    report = kirwan_correspondence_check(action, inv, n_samples=60, seed=seed)
    assert report == _kirwan_reference(action, inv, 60, seed)
    assert report["equivalence_holds"] and report["zero_level_all_semistable"]


def test_kirwan_trivial_action_contract():
    report = kirwan_correspondence_check(TRIVIAL, None)
    assert report["equivalence_holds"] is None
    assert "not determined" in report["verdict"]


# -- the scalar pass against the array reference -----------------------------------------

X3 = [Polynomial.variable(3, k) for k in range(3)]


def _mu_scale(weights, V):
    """sum |w_j| |v_j|^2 / (2 pi |v|^2) for each row v of V: the size of mu's
    terms, which bounds its rounding; mu itself cancels near the zero level,
    where the array route's complex products (re (w re) + im (w im), with
    whatever contraction numpy's loops make) and the scalar w |v_j|^2 round
    apart by ulps of the terms, not of mu."""
    p = np.abs(V) ** 2
    return (p @ np.abs(np.array(weights, dtype=float))) / (2 * math.pi * p.sum(axis=1))


@pytest.mark.parametrize("weights, polys", [
    ((-1, 1), None), ((-1, 2), None), ((-1, 1, 1), None), ((-1, 0, 1), None), ((-40, 41), None),
    ((-1, 1, 1), [X3[0] * X3[1] - 2 * X3[0] * X3[2],
                  X3[0] ** 2 * X3[1] * X3[2] + GaussianRational(1, 3) * X3[0] ** 2 * X3[2] ** 2])])
def test_scalar_pass_matches_the_array_reference(weights, polys):
    # the one-pass scalar helpers against the array passes they replaced, on
    # points with zero coordinates, every coordinate point and (1e-3 : 1),
    # where X0^41 X1^40 reads 0.03; the second set of (-1, 1, 1) has
    # several terms per invariant, so their phases are summed
    from projquant.cli import _weight_invariants
    from projquant.gitquot import _invariant_moduli, _log_terms
    from reference_routes import invariant_moduli_rows, limit_rows

    action = LinearAction.from_weights(weights)
    inv = _weight_invariants(action) if polys is None else InvariantSet.certified(polys, action)
    n = len(weights)
    rng = np.random.default_rng(35)
    V = rng.normal(size=(60, n)) + 1j * rng.normal(size=(60, n))
    V[rng.random((60, n)) < 0.3] = 0.0
    V[~V.any(axis=1), -1] = 1.0
    V = np.concatenate([V, np.eye(n), [[1e-3] + [1.0] * (n - 1)]])
    mus, scale = moment_rows(action, V)[:, 0], _mu_scale(weights, V)
    moduli, limits = invariant_moduli_rows(inv, V), limit_rows(weights, V)
    terms = _log_terms(inv)
    for k, x in enumerate(V):
        p = ProjPoint(tuple(x.tolist()))
        mu, = moment_map(action, p)
        assert abs(mu - mus[k]) <= 1e-15 * scale[k]
        got = list(_invariant_moduli(terms, p.coords))
        assert np.allclose(got, moduli[k], rtol=1e-12, atol=0.0)
        assert semistable(p, inv) == bool(np.any(moduli[k] > 1e-12))
        for direction, limit in zip(("0", "inf"), limits):
            q = one_param_limit(weights, p, direction)
            assert format_point(q) == format_point(ProjPoint(tuple(limit[k].tolist())))
            assert semistable(q, inv) == bool(
                np.any(invariant_moduli_rows(inv, limit[k][None, :]) > 1e-12))
    if weights == (-40, 41):  # X0^41 X1^40 at (1e-3 : 1), the last point: no underflow
        assert abs(moduli[-1][0] - 0.0303) < 1e-4


@pytest.mark.parametrize("weights", [(-1, 1), (-1, 2), (-1, 1, 1), (-1, 0, 1)])
def test_kirwan_rows_match_the_array_reference(weights):
    # every row of the one-pass report, recomputed at its printed point by
    # the array passes: mu, the semistability verdict and both limit strings
    from projquant.cli import _weight_invariants
    from reference_routes import invariant_moduli_rows, limit_rows

    action = LinearAction.from_weights(weights)
    inv = _weight_invariants(action)
    rows = kirwan_correspondence_check(action, inv, n_samples=60, seed=4)["samples"]
    V = np.array([[complex(c) for c in r["point"][1:-1].split(" : ")] for r in rows])
    mus, scale = moment_rows(action, V)[:, 0], _mu_scale(weights, V)
    semi = np.any(invariant_moduli_rows(inv, V) > 1e-12, axis=1)
    limits = [[format_point(ProjPoint(tuple(x))) for x in L.tolist()]
              for L in limit_rows(weights, V)]
    for k, r in enumerate(rows):
        assert abs(r["mu"][0] - mus[k]) <= 1e-15 * scale[k]
        assert r["semistable"] == semi[k]
        assert (r["limit_t_to_0"], r["limit_t_to_inf"]) == (limits[0][k], limits[1][k])


def test_orbit_search_takes_any_sequence_of_numbers():
    # the zero-level search op passes numpy arrays; a list and a tuple of the
    # same point give the same verdict and the same witness
    action = LinearAction.from_weights((-1, 1, 2))
    for x, want in [([0.3 + 0.1j, -1.2 + 0.4j, 0.5j], True), ([0.0, 1.0, 2.0j], False),
                    ([1.0, 0.0, 0.0], False), ([1.0, 0.0, 3.0], True)]:
        results = [orbit_meets_zero_level(action, y, tol=1e-9) for y in (np.array(x), x, tuple(x))]
        met, witness = results[0]
        assert met == want
        for other_met, other in results[1:]:
            assert other_met == met
            assert (witness is None and other is None) or other.coords == witness.coords
        if witness is not None:
            assert all(type(c) is complex for c in witness.coords)
