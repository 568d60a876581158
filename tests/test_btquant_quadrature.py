import math
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from projquant.btquant import (build_quadrature, dirac_residual, geom_quant, product_residual,
                               toeplitz, tuynman_residual)
from projquant.btquant.chart import _h, _on_sphere
from projquant.btquant.quadrature import bundle_weight, gauss_legendre
from projquant.btquant.sections import SectionBasis, level_basis

from conftest import profiles, section_values


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
    for n in (38, 70, 102, 134, 135, 262, 1030, 1031):
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


def test_rule_is_memoized_and_read_only():
    # the process keeps one level: the basis level_basis returned last, and its rule
    basis = level_basis(20)
    rule = basis.quad
    assert level_basis(20) is basis
    # a writable array on the kept basis, the assembly's cells among them,
    # would corrupt every later operator
    for a in (rule.nodes, rule.weights, basis.radial_weights, basis.radial_table,
              basis.pair_scale, basis.columns, basis.index, basis.conjugate):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0
    assert not hasattr(rule, "basis")  # the rule holds no basis: it stays as built
    fresh = build_quadrature(20)  # a plain constructor: a new rule on each call
    assert fresh is not rule and build_quadrature(20) is not fresh
    on_fresh = level_basis(20, fresh)  # an explicit rule is looked up by identity
    assert on_fresh is not basis and on_fresh.quad is fresh
    assert level_basis(20, fresh) is on_fresh
    assert level_basis(20) is on_fresh  # no rule given: fresh has level 20's counts
    assert level_basis(20, build_quadrature(20)) is not on_fresh
    lower = level_basis(19, fresh)  # only the last basis is kept
    assert level_basis(19, fresh) is lower and level_basis(20, fresh) is not on_fresh
    coarse = build_quadrature(20, radial=30)  # not level 20's default counts
    on_coarse = level_basis(20, coarse)
    assert level_basis(20, coarse) is on_coarse
    default = level_basis(20)
    # the derived degree-4 bound: R = ceil((20 + 4 + 1) / 2)
    assert default.quad is not coarse and default.quad.radial_count == 13


def test_kept_footprint_at_level_1024_is_the_readme_figure():
    # what a process keeps for one level: the rule with its node geometry,
    # and the basis with the one assembly plan, that of real node values
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.search(r"about (\d+) MB\s+kept\s+at\s+m\s+=\s+1024", readme)
    basis = SectionBasis.build(1024)
    rule = basis.quad
    kept = [rule.nodes, rule.weights, rule.radii, rule.h]
    kept += [basis.radial_weights, basis.radial_table, basis.pair_scale]
    plan = [basis.columns, basis.index, basis.conjugate]
    total = sum(a.nbytes for a in kept + plan)
    assert stated is not None and round(total / 1e6) == int(stated.group(1))
    # the plan stays no larger than the rest of the basis it indexes
    assert sum(a.nbytes for a in plan) <= sum(a.nbytes for a in kept[4:])


def test_h_of_a_writable_node_copy_is_fresh():
    rule = level_basis(12).quad
    assert _h(rule.nodes) is rule.h  # the kept level's rule
    other = build_quadrature(12)  # the same nodes in an array of its own
    assert np.array_equal(_h(other.nodes), rule.h) and _h(other.nodes) is not other.h
    z = rule.nodes.copy()
    assert np.array_equal(_h(z), rule.h) and _h(z) is not rule.h
    z *= 2.0
    assert np.array_equal(_h(z), 1.0 / (1.0 + np.abs(z) ** 2))
    z[:] = 0.0
    assert np.all(_h(z) == 1.0)
    level_basis(11)  # another level is kept now
    assert _h(rule.nodes) is not rule.h and np.array_equal(_h(rule.nodes), rule.h)


def test_total_mass(quad64):
    assert abs(quad64.total_mass() - 2 * math.pi) < 1e-10


def test_angular_orthogonality(quad64):
    z = quad64.nodes
    m = 10
    hm = bundle_weight(z) ** m
    for j, k in [(0, 1), (2, 5), (1, 9), (0, 10)]:
        val = np.sum(quad64.weights * hm * np.conj(z) ** j * z ** k)
        assert abs(val) < 1e-12


def test_gram_matches_beta_oracle(quad64):
    r = np.abs(quad64.nodes.reshape(quad64.radial_count, -1)[:, 0])
    for m in (3, 8, 16):
        basis = SectionBasis.build(m, quad64)
        s = section_values(basis)
        gram = (s.conj() * quad64.weights) @ s.T
        assert np.max(np.abs(gram - np.eye(m + 1))) < 1e-12
        P = profiles(basis)
        for k in range(m + 1):
            c = P[:, k] / (r ** k * (1 + r ** 2) ** (-m / 2))
            assert np.max(np.abs(c - c[0])) < 1e-12 * c[0]
            # <z^k, z^k> = 4 pi int_0^inf r^(2k+1) (1+r^2)^(-m-2) dr
            assert abs(c[0] ** 2 * 4 * math.pi * beta_closed_form(k, m) - 1) < 1e-12
            assert abs(c[0] ** 2 * 4 * math.pi * radial_moment_oracle(k, m) - 1) < 1e-10


def test_section_profiles_finite_at_large_level():
    # z^k and the binomial coefficients overflow long before m = 1024; the
    # log-space profiles must stay finite and normalized
    m = 1024
    basis = SectionBasis.build(m)
    P = profiles(basis)
    assert P.shape == (basis.quad.radial_count, m + 1)
    assert np.all(np.isfinite(P))
    norms = basis.radial_weights @ P ** 2
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_default_rule_exactness_flag(quad64):
    assert quad64.is_exact_for(64)
    coarse = build_quadrature(8, radial=3, angular=10)
    assert not coarse.is_exact_for(8)


#: degree in x1, x2, x3 of each standard_family symbol
FAMILY_DEGREES = {"one": 0, "x1": 1, "x2": 1, "x3": 1, "x3sq": 2, "x1x2": 2}

#: symbols of degree 3 and 4 beyond the family, as _on_sphere text, and their
#: degrees; X0^3 carries the angular modes +-3 that X0*X1*X2 (modes +-2) lacks
HIGHER_DEGREES = {"X0*X1*X2": 3, "X0^3": 3, "X2^4": 4, "X0^2*X1^2": 4, "X0^3*X2": 4}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_exactness_flag_follows_the_derived_bound(family, quad64, d):
    # the minimal rule 2R - 1 >= m + d, A >= m + d + 1 reproduces a larger
    # exact rule's matrices of every symbol of degree <= d; one radius or one
    # angle fewer moves the Toeplitz matrices, and the flag says so.  The
    # aliasing the smaller rules commit fades with m (about 1e-14 at m = 64
    # for d = 4), so the level stays at 16
    m = 16
    symbols = [family[name] for name, deg in FAMILY_DEGREES.items() if deg <= d]
    symbols += [_on_sphere(text, text) for text, deg in HIGHER_DEGREES.items() if deg <= d]

    def matrices(quad):
        return [(toeplitz(f, m, quad=quad).mat, geom_quant(f, m, quad=quad).mat) for f in symbols]

    ref = matrices(quad64)
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


@pytest.mark.parametrize("m", [4, 16, 64])
def test_default_rule_reproduces_the_wider_rule(family, m):
    # the default rule sits at the degree-4 bound; the rule of m + 6 radii and
    # 2m + 8 angles is exact with room to spare.  Both integrate exactly, so
    # they differ by rounding alone: each profile carries about m ulps (its
    # log-space terms), so a Toeplitz entry a few m ulps; geom_quant's D_f is
    # m times an assembly less sqrt(k (m-k+1)) <= m times another, and each
    # residual is m times a difference of such products, so those carry m
    # times that
    wide = build_quadrature(m, radial=m + 6, angular=2 * m + 8)
    default = build_quadrature(m)
    assert default.is_exact_for(m, 4)
    eps = np.finfo(float).eps
    for f in family.values():
        t = toeplitz(f, m, quad=default).mat - toeplitz(f, m, quad=wide).mat
        assert np.max(np.abs(t)) <= 4 * m * eps
        q = geom_quant(f, m, quad=default).mat - geom_quant(f, m, quad=wide).mat
        assert np.max(np.abs(q)) <= 4 * m * m * eps
    x3sq, x1x2 = family["x3sq"], family["x1x2"]
    for residual in (lambda quad: dirac_residual(x3sq, x1x2, m, quad=quad),
                     lambda quad: product_residual(x3sq, x3sq, m, quad=quad),
                     lambda quad: tuynman_residual(x3sq, m, quad=quad)):
        assert abs(residual(default) - residual(wide)) <= 4 * m * m * eps


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        build_quadrature(0)
    with pytest.raises(ValueError):
        build_quadrature(4, radial=0)
    with pytest.raises(ValueError):
        build_quadrature(4, angular=1)


def test_weights_positive(quad64):
    assert np.all(quad64.weights > 0)
