import cmath
import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from projquant.gaussrat import GaussianRational
from projquant.poly import Polynomial
from projquant.projgeo import (
    CubicClass,
    PointNotOnVarietyError,
    ProjPoint,
    VarietyPresentation,
    cubic_classify,
    discriminant,
    is_on_variety,
    is_singular_point,
    jacobian,
    rank_at,
    veronese_square,
    weierstrass_cubic,
    weierstrass_cubic_singular_points,
    zariski_tangent_dim,
)

F = Fraction
X = lambda i, n=3: Polynomial.variable(n, i)


def pt(*coords):
    return ProjPoint(tuple(F(c) if isinstance(c, int) else c for c in coords))


# -- evaluation -------------------------------------------------------------

def test_evaluate_product_vanishes_at_intersection():
    f = X(0) * X(1)
    assert f.evaluate(pt(0, 0, 1).coords) == 0


def test_evaluate_degree_one_scaling():
    f = X(0, 3)
    lam = F(7, 3)
    assert f.evaluate((lam, F(0), F(0))) == lam * f.evaluate(pt(1, 0, 0).coords)


def test_evaluate_cuspidal_cubic_at_point():
    # brute-force term summation fixes the value: 4 - 4 = 0
    f = X(1) ** 2 * X(2) - 4 * X(0) ** 3
    assert f.evaluate(pt(1, 2, 1).coords) == 0
    assert f.evaluate(pt(1, 1, 1).coords) == -3


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0).evaluate(pt(1, 0, 0).coords)


def test_float_homogeneity_scaling():
    f = 3 * X(0) ** 2 * X(1) - X(2) ** 3
    base = np.array([0.3 - 0.7j, 1.2, -0.5j])
    v0 = f.evaluate(tuple(base))
    for lam in (2.0, -0.37, 0.11 + 0.9j):
        v = f.evaluate(tuple(lam * base))
        assert abs(v - lam ** 3 * v0) <= 1e-12 * abs(v0) * abs(lam) ** 3


# -- membership -------------------------------------------------------------

def test_is_on_variety_examples():
    V = VarietyPresentation([X(0) * X(1)])
    assert is_on_variety(V, pt(0, 0, 1))
    assert not is_on_variety(VarietyPresentation([X(0, 3)]), pt(1, 0, 0))
    cubic = VarietyPresentation([X(1) ** 2 * X(2) - 4 * X(0) ** 3])
    assert is_on_variety(cubic, pt(1, 2, 1))


def test_is_on_variety_representative_independent():
    # scaling by lam is exact on (1, 2, 4), so each float representative
    # holds lam (1, 2, 4) exactly, and membership is decided exactly
    V = VarietyPresentation([X(1) ** 2 - X(0) * X(2)])
    base = np.array([1.0, 2.0, 4.0])
    for lam in (2.0, -0.3, 1e4, 1j, 0.5 - 0.1j):
        assert is_on_variety(V, ProjPoint(tuple(lam * base)))
    off = np.array([1.0, 2.0, 4.0001])
    for lam in (1.0, 1e6, 1e-6):
        assert not is_on_variety(V, ProjPoint(tuple(lam * off)))


def test_zero_generator_dropped_with_warning():
    with pytest.warns(UserWarning):
        V = VarietyPresentation([X(0), Polynomial.zero(3)])
    assert len(V.generators) == 1


# -- jacobian ----------------------------------------------------------------

def test_jacobian_examples():
    assert jacobian(VarietyPresentation([X(0) * X(1)])) == \
        ((X(1), X(0), Polynomial.zero(3)),)
    cusp = X(1) ** 2 * X(2) - 4 * X(0) ** 3
    assert jacobian(VarietyPresentation([cusp])) == \
        ((-12 * X(0) ** 2, 2 * X(1) * X(2), X(1) ** 2),)
    quad = X(1) ** 2 - X(0) * X(2)
    assert jacobian(VarietyPresentation([quad])) == \
        ((-X(2), 2 * X(1), -X(0)),)


def test_jacobian_evaluation_commutes_with_substitution():
    # oracle: recompute each partial by independent term-by-term differentiation
    rng = random.Random(2)
    f = 3 * X(0) ** 2 * X(1) - F(5, 2) * X(1) * X(2) ** 2 + X(0) * X(1) * X(2)
    g = X(0) ** 3 + X(2) ** 3
    V = VarietyPresentation([f, g])
    J = jacobian(V)
    for _ in range(100):
        p = tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        vals = [[d.evaluate(p) for d in row] for row in J]
        for l, poly in enumerate([f, g]):
            for i in range(3):
                oracle = sum(
                    c * m[i] * _mono_eval(tuple(e - (j == i) for j, e in enumerate(m)), p)
                    for m, c in poly.terms.items() if m[i] > 0)
                assert vals[l][i] == oracle


def _mono_eval(mono, p):
    v = F(1)
    for x, e in zip(p, mono):
        v *= x ** e
    return v


# -- rank and singularity ----------------------------------------------------

def test_rank_at_examples():
    assert rank_at(VarietyPresentation([X(0) * X(1)]), pt(0, 0, 1)) == 0
    cusp = VarietyPresentation([X(1) ** 2 * X(2) - 4 * X(0) ** 3])
    assert rank_at(cusp, pt(0, 0, 1)) == 0
    mixed = VarietyPresentation([X(1) ** 2 * X(2) - 4 * X(0) ** 3 + X(0) * X(2) ** 2])
    assert rank_at(mixed, pt(0, 1, 0)) == 1


def test_rank_at_requires_membership():
    with pytest.raises(PointNotOnVarietyError):
        rank_at(VarietyPresentation([X(0)]), pt(1, 1, 1))


def test_singular_points_of_classic_cubics():
    pair = VarietyPresentation([X(0) * X(1)], claimed_dim=1)
    assert is_singular_point(pair, pt(0, 0, 1))
    assert not is_singular_point(pair, pt(0, 1, 0))

    nodal = VarietyPresentation(
        [X(1) ** 2 * X(2) - 4 * X(0) ** 2 * (X(0) + X(2))], claimed_dim=1)
    assert is_singular_point(nodal, pt(0, 0, 1))
    assert not is_singular_point(nodal, pt(0, 1, 0))
    # second branch point through the node: (-1 : 0 : 1) is regular
    assert not is_singular_point(nodal, pt(-1, 0, 1))

    cuspidal = VarietyPresentation([X(1) ** 2 * X(2) - 4 * X(0) ** 3], claimed_dim=1)
    assert is_singular_point(cuspidal, pt(0, 0, 1))


def test_singularity_test_needs_the_claimed_dimension():
    # the presentation's claimed_dim is the one way to give the dimension
    V = VarietyPresentation([X(0) * X(1)])
    with pytest.raises(ValueError, match="dimension.* is required"):
        is_singular_point(V, pt(0, 0, 1))


def test_smooth_cubic_has_no_singular_candidates():
    for g2, g3 in [(F(4), F(0)), (F(1), F(1)), (F(-3), F(2))]:
        assert cubic_classify(g2, g3) is CubicClass.SMOOTH
        assert weierstrass_cubic_singular_points(g2, g3) == []


def test_rank_chart_consistency():
    # projective rank verdict agrees with the affine Jacobian in a chart
    f = X(1) ** 2 * X(2) - 4 * X(0) ** 2 * (X(0) + X(2))
    V = VarietyPresentation([f], claimed_dim=1)
    for p, expected in [(pt(0, 0, 1), True), (pt(-1, 0, 1), False)]:
        proj_singular = is_singular_point(V, p)
        chart = f.dehomogenize(2)
        a = (p.coords[0] / p.coords[2], p.coords[1] / p.coords[2])
        affine_dim = zariski_tangent_dim([chart], a)
        assert proj_singular == (affine_dim > 1) == expected
    # each rational cubic of the corpus: its singular point and one regular
    # point through both routes.  A float copy decides like the exact point
    # where its floats hold that point exactly, and is off the cubic where
    # they round it
    held = rounded = 0
    for g2, g3 in CUBIC_CASES:
        if g2.imag or g3.imag:
            continue
        f = weierstrass_cubic(g2, g3)
        V = VarietyPresentation([f], claimed_dim=1)
        points = [(p.coords, True) for p in weierstrass_cubic_singular_points(g2, g3)]
        regular = _regular_chart_point(g2, g3)
        if regular is None:  # (1/9, 1/27): the float point over x = 1 is near it
            _assert_off_both_routes(f, V, (1.0, cmath.sqrt(complex(4 - g2 - g3)), 1.0))
        else:
            points.append((regular, False))
        for coords, singular in points:
            _assert_routes_agree(f, V, coords, singular)
            floats = tuple(complex(x) for x in coords)
            if all(F(z.real) == x.real and F(z.imag) == x.imag for z, x in zip(floats, coords)):
                _assert_routes_agree(f, V, floats, singular)
                held += 1
            else:
                _assert_off_both_routes(f, V, floats)
                rounded += 1
    assert held and rounded


def _assert_routes_agree(f, V, coords, singular):
    affine_dim = zariski_tangent_dim([f.dehomogenize(2)], coords[:2])
    assert is_singular_point(V, ProjPoint(coords)) == (affine_dim > 1) == singular, coords


def _assert_off_both_routes(f, V, coords):
    with pytest.raises(PointNotOnVarietyError):
        is_singular_point(V, ProjPoint(coords))
    with pytest.raises(PointNotOnVarietyError):
        zariski_tangent_dim([f.dehomogenize(2)], coords[:2])


def _regular_chart_point(g2, g3):
    """A point (x : y : 1) of the Weierstrass cubic off its singular point:
    the first x = a/d^2 in a small grid where 4x^3 - g2 x - g3 is plus or
    minus a rational square, so that y lies in Q(i); None where there is no
    such x of small height, as for (1/9, 1/27)."""
    node = [p.coords[0] for p in weierstrass_cubic_singular_points(g2, g3)]
    for d in (1, 2, 3):
        for a in sorted(range(-12, 13), key=abs):
            x = F(a, d * d)
            r = 4 * x ** 3 - g2 * x - g3
            y = F(isqrt(abs(r.numerator)), isqrt(r.denominator))
            if y * y == abs(r) and x not in node:
                return (x, y if r >= 0 else GaussianRational(0, y), F(1))
    return None


def test_float_rank_path():
    # a float coordinate is lifted to the binary fraction it holds: (1.0, 2.0,
    # 4.0) decides like (1, 2, 4), and a float that rounds the node (c : 0 : 1)
    # of g2 = 12 c^2, g3 = -8 c^3 is off the cubic, with no tolerance to pass it
    V = VarietyPresentation([X(1) ** 2 - X(0) * X(2)], claimed_dim=1)
    p = ProjPoint((1.0, 2.0, 4.0))
    assert rank_at(V, p) == rank_at(V, pt(1, 2, 4)) == 1
    assert not is_singular_point(V, p)
    for c in (F(2, 7), F(5, 3)):
        f = weierstrass_cubic(12 * c ** 2, -8 * c ** 3)
        node = VarietyPresentation([f], claimed_dim=1)
        assert is_singular_point(node, pt(c, 0, 1))
        assert not is_on_variety(node, ProjPoint((float(c), 0.0, 1.0)))
        with pytest.raises(PointNotOnVarietyError):
            rank_at(node, ProjPoint((float(c), 0.0, 1.0)))
        with pytest.raises(PointNotOnVarietyError):
            zariski_tangent_dim([f.dehomogenize(2)], (float(c), 0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 complex(1.0, float("nan")), complex(float("-inf"), 2.0)])
def test_non_finite_coordinates_are_on_no_variety(bad):
    # a nan or an infinity has no exact value to lift: the point is on no
    # variety, and the rank routes say so with their own error, not with
    # Fraction's ValueError or OverflowError; X1 - X2 vanishes at any
    # (bad : 1 : 1) if the bad coordinate is skipped
    for V in (VarietyPresentation([X(1) ** 2 - X(0) * X(2)], claimed_dim=1),
              VarietyPresentation([X(1) - X(2)], claimed_dim=1)):
        p = ProjPoint((bad, 1.0, 1.0))
        assert is_on_variety(V, p) is False
        with pytest.raises(PointNotOnVarietyError):
            rank_at(V, p)
        with pytest.raises(PointNotOnVarietyError):
            is_singular_point(V, p)
    with pytest.raises(PointNotOnVarietyError):
        zariski_tangent_dim([X(1, 2) ** 2 - X(0, 2)], (bad, 1.0))
    with pytest.raises(PointNotOnVarietyError):
        zariski_tangent_dim([X(1, 2) - 1], (bad, 1.0))


@pytest.mark.parametrize("c", [F(3, 4), F(-5, 8)])
def test_float_node_is_singular_like_the_exact_one(c):
    # the node of g2 = 12 c^2, g3 = -8 c^3 is (c : 0 : 1); a binary fraction
    # c is a float, and the float node decides like the exact one
    f = weierstrass_cubic(12 * c ** 2, -8 * c ** 3)
    V = VarietyPresentation([f], claimed_dim=1)
    assert is_singular_point(V, pt(c, 0, 1))
    assert rank_at(V, ProjPoint((float(c), 0.0, 1.0))) == 0
    assert zariski_tangent_dim([f.dehomogenize(2)], (float(c), 0.0)) == 2


# -- Zariski tangent space ---------------------------------------------------

def _plane_cubic(a, b):
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return y ** 2 - 4 * x * (x - a) * (x - b)


@pytest.mark.parametrize("a,b,expected", [
    (F(1), F(2), 1),   # a*b != 0: regular point, tangent line only
    (F(0), F(2), 2),   # repeated root at 0: singular, full tangent plane
    (F(3), F(0), 2),
])
def test_zariski_tangent_dim_plane_cubic(a, b, expected):
    assert zariski_tangent_dim([_plane_cubic(a, b)], (F(0), F(0))) == expected


def test_zariski_tangent_dim_linear_ideal():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert zariski_tangent_dim([x, y], (F(0), F(0))) == 0


def test_zariski_tangent_requires_zero():
    with pytest.raises(PointNotOnVarietyError):
        zariski_tangent_dim([_plane_cubic(F(1), F(2))], (F(1), F(1)))


# -- dehomogenize --------------------------------------------------------------

def test_dehomogenize_examples():
    cubic = X(1) ** 2 * X(2) - 4 * X(0) ** 3
    assert cubic.dehomogenize(2) == Polynomial(2, {(0, 2): 1, (3, 0): -4})
    assert X(0, 3).dehomogenize(0) == Polynomial.constant(2, 1)
    quad = X(1) ** 2 - X(0) * X(2)
    assert quad.dehomogenize(0) == Polynomial(2, {(2, 0): 1, (0, 1): -1})


# -- cubic classification -------------------------------------------------------

def test_cubic_classify_examples():
    assert cubic_classify(F(0), F(0)) is CubicClass.CUSPIDAL
    assert cubic_classify(F(3), F(1)) is CubicClass.NODAL
    assert cubic_classify(F(4), F(0)) is CubicClass.SMOOTH


def test_nodal_case_has_double_root():
    # oracle for (g2, g3) = (3, 1): 4x^3 - 3x - 1 factors with a double root
    roots = np.roots([4.0, 0.0, -3.0, -1.0])
    roots.sort()
    # a numerical double root splits by ~sqrt(eps); 1e-6 is the honest scale
    assert abs(roots[0] - roots[1]) < 1e-6
    assert abs(roots[0] + 0.5) < 1e-6
    assert abs(roots[2] - 1.0) < 1e-8           # the simple root stays sharp


def test_cubic_classify_float_tolerance():
    # floats are lifted exactly: the verdict is that of the binary value
    assert cubic_classify(3.0, 1.0 + 1e-15) is CubicClass.SMOOTH
    assert cubic_classify(3.0, 1.0) is CubicClass.NODAL
    assert cubic_classify(1e-14, 1e-14) is CubicClass.SMOOTH
    assert cubic_classify(0.0, 0.0) is CubicClass.CUSPIDAL
    assert cubic_classify(4.0, 0.0) is CubicClass.SMOOTH
    assert discriminant(3.0, 1.0 + 1e-15) == discriminant(F(3), F(1 + 1e-15)) != 0


def test_classification_matches_exact_singular_search():
    # smooth <=> the partial-derivative system has no solutions
    rng = random.Random(9)
    cases = [(F(0), F(0)), (F(3), F(1)), (F(4), F(0)), (F(-3), F(1)),
             (F(6, 5), F(2, 5)), (F(27), F(27))]
    for _ in range(14):
        cases.append((F(rng.randint(-8, 8)), F(rng.randint(-8, 8))))
    for g2, g3 in cases:
        pts = weierstrass_cubic_singular_points(g2, g3)
        cls = cubic_classify(g2, g3)
        assert (cls is CubicClass.SMOOTH) == (pts == [])
        V = VarietyPresentation([weierstrass_cubic(g2, g3)], claimed_dim=1)
        for p in pts:
            assert is_on_variety(V, p)
            assert is_singular_point(V, p)


# the acceptance suite's twenty-case rational corpus, and a Gaussian node
# (g2, g3) = (3 t^2, t^3) at t = 1 + i, whose singular point is (-1/2 - i/2 : 0 : 1)
CUBIC_CASES = [(F(0), F(0)), (F(3), F(1)), (F(4), F(0)), (F(0), F(1)),
               (F(-3), F(1)), (F(12), F(-8)), (F(27), F(27)), (F(3, 4), F(1, 8)),
               (F(1), F(2)), (F(-1), F(-1)), (F(48), F(-64)), (F(75), F(125)),
               (F(2), F(3)), (F(-12), F(8)), (F(6, 5), F(2, 5)), (F(9), F(-3)),
               (F(300), F(1000)), (F(1, 9), F(1, 27)), (F(-27), F(81)), (F(108), F(216)),
               (GaussianRational(0, 6), GaussianRational(-2, 2))]


def _cmul(*pairs):
    """Product of complex numbers given as (re, im) pairs of Fractions."""
    re, im = F(1), F(0)
    for a, b in pairs:
        re, im = re * a - im * b, re * b + im * a
    return re, im


def _ccomb(*terms):
    """Sum of c * z over (c, (re, im)) terms with rational c."""
    return (sum(c * z[0] for c, z in terms), sum(c * z[1] for c, z in terms))


def _assert_exact(value, want):
    """value equals the pair want, and is a Fraction exactly when it is real."""
    assert (F(value.real), F(value.imag)) == want
    assert type(value) is (F if want[1] == 0 else GaussianRational)


@pytest.mark.parametrize("g2, g3", CUBIC_CASES)
def test_exact_results_are_fractions_exactly_when_real(g2, g3):
    a, b = (F(g2.real), F(g2.imag)), (F(g3.real), F(g3.imag))
    d = _ccomb((1, _cmul(a, a, a)), (-27, _cmul(b, b)))
    _assert_exact(discriminant(g2, g3), d)
    pts = weierstrass_cubic_singular_points(g2, g3)
    if d != (0, 0):
        assert pts == []
    else:
        (p,) = pts
        n = a[0] * a[0] + a[1] * a[1]
        x = (0, 0) if n == 0 else _ccomb((F(-3, 2) / n, _cmul(b, (a[0], -a[1]))))
        for c, want in zip(p.coords, (x, (0, 0), (1, 0))):
            _assert_exact(c, want)
    for c, want in zip(veronese_square(ProjPoint((F(1), g2))).coords,
                       ((1, 0), a, _cmul(a, a))):
        _assert_exact(c, want)
    value = weierstrass_cubic(g2, g3).evaluate((g2, g3, F(1)))
    _assert_exact(value, _ccomb((1, _cmul(b, b)), (-4, _cmul(a, a, a)),
                                (1, _cmul(a, a)), (1, b)))


# -- veronese -------------------------------------------------------------------

def test_veronese_examples():
    assert veronese_square(pt(1, 0)).coords == (F(1), F(0), F(0))
    assert veronese_square(pt(1, 1)).coords == (F(1), F(1), F(1))
    img = veronese_square(pt(2, 3))
    assert img.coords == (F(4), F(6), F(9))
    assert (X(1) ** 2 - X(0) * X(2)).evaluate(img.coords) == 0


def test_veronese_image_always_on_quadric():
    rng = random.Random(4)
    Q = VarietyPresentation([X(1) ** 2 - X(0) * X(2)])
    for _ in range(30):
        p = pt(F(rng.randint(-9, 9), rng.randint(1, 3)), F(rng.randint(1, 9)))
        assert is_on_variety(Q, veronese_square(p))


# -- text / JSON interfaces -------------------------------------------------------

def test_gaussian_rational_points():
    i = GaussianRational(0, 1)
    V = VarietyPresentation([X(0) ** 2 + X(1) ** 2], claimed_dim=1)
    assert is_on_variety(V, ProjPoint((GaussianRational(1), i, GaussianRational(0))))
