"""The band route, btquant.bands: its entries against exact Beta integrals,
its operators and residuals against the quadrature route, the spin closed
forms, and mutants that the checks must catch."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from projquant.btquant import (
    bands,
    dirac_residual,
    fit_loglog_slope,
    product_residual,
    toeplitz,
    tuynman_residual,
)
from projquant.btquant.operators import _covariant_part
from projquant.btquant.sections import level_basis

U = 2.0 ** -53  # unit roundoff
FAMILY = bands.family()
NAMES = list(FAMILY)
PAIRS = list(itertools.permutations(NAMES, 2))


def dense(band, m):
    out = np.zeros((m + 1, m + 1), dtype=complex)
    for d, entries in band.items():
        for i, x in enumerate(entries):
            out[(i + d, i) if d >= 0 else (i, i - d)] = x
    return out


def abs_norm(band):
    """max(row sums, column sums) of |A|: a bound on || |A| || in the 2-norm."""
    if not any(band.values()):
        return 0.0
    m = bands._size(band) - 1
    a = np.abs(dense(band, m))
    return float(max(a.sum(axis=0).max(), a.sum(axis=1).max()))


def size(p, m):
    """|| |T_p| || bounded as abs_norm does, and at least sum |c| over the
    coefficients of p, which bounds |p| on the sphere: a quadrature sum for
    an entry of T_p adds terms whose moduli sum to at most sup |p|."""
    return max(abs_norm(bands.toeplitz(p, m)), float(sum(abs(c) for c in p.terms.values())))


# -- (a) entries against exact Beta integrals ----------------------------------------

def _times(p, q):
    out = {}
    for (a, b), x in p.items():
        for (c, d), y in q.items():
            out[a + c, b + d] = out.get((a + c, b + d), 0) + x * y
    return out


def _power(p, e):
    out = {(0, 0): 1}
    for _ in range(e):
        out = _times(out, p)
    return out


#: z + zbar, z - zbar, 1 - z zbar and 1 + z zbar as {(a, b): integer}
_SUM, _DIFF, _X3, _ONE = {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}, \
    {(0, 0): 1, (1, 1): -1}, {(0, 0): 1, (1, 1): 1}


def chart_numerator(p):
    """p = h^D N(z, zbar) by binomial expansion, independent of Polynomial
    arithmetic: D and N as {(a, b): (re, im)} Fractions, from
    x1 = h (z + zbar), x2 = -i h (z - zbar), x3 = h (1 - z zbar), 1 = h (1 + z zbar)."""
    D = max(p.degree(), 0)
    N = {}
    for (al, be, ga), c in p.terms.items():
        real = _times(_times(_power(_SUM, al), _power(_DIFF, be)),
                      _times(_power(_X3, ga), _power(_ONE, D - al - be - ga)))
        unit = [(1, 0), (0, -1), (-1, 0), (0, 1)][be % 4]  # (-i)^be
        for mono, x in real.items():
            re, im = N.get(mono, (0, 0))
            N[mono] = (re + c * x * unit[0], im + c * x * unit[1])
    return D, N


def beta(m, E, a, c):
    """(c+a)! (m+E-c-a)! / (m+E+1)!, the Beta integral without its
    (m+1) sqrt(C(m,j) C(m,c)), straight from factorials."""
    return Fraction(math.factorial(c + a) * math.factorial(m + E - c - a),
                    math.factorial(m + E + 1))


def exact_toeplitz(p, m, j, k):
    """<s_j, p s_k> / ((m+1) sqrt(C(m,j) C(m,k))) in Q(i), as (re, im)."""
    D, N = chart_numerator(p)
    terms = [(x, beta(m, D, a, k)) for (a, b), x in N.items() if a - b == j - k]
    return tuple(sum((x[part] * w for x, w in terms), Fraction(0)) for part in (0, 1))


def exact_covariant(p, m, j, k):
    """D_p entry (j, k) / ((m+1) sqrt(C(m,j) C(m,k))) in Q(i), from the two
    terms of operators._covariant_part's docstring with
    X^z = -(i/m) h^(D-1) ((1 + z zbar) N_zbar - D z N); the second term's
    sqrt(k (m-k+1)) sqrt(C(m,k-1)) is k sqrt(C(m,k))."""
    D, N = chart_numerator(p)
    M = {}
    for (a, b), (re, im) in N.items():
        for mono, c in (((a, b - 1), b), ((a + 1, b), b - D)):
            if c:
                r, s = M.get(mono, (0, 0))
                M[mono] = (r + c * re, s + c * im)
    total = [Fraction(0), Fraction(0)]
    for (a, b), (re, im) in M.items():
        if a - b - 1 != j - k:
            continue
        w = -beta(m, D, a, k)  # -i M_ab <z^a zbar^(b+1) h^D>
        if k >= 1:  # (i k / m) M_ab <z^a zbar^b h^(D-1)> at column k-1
            w += Fraction(k, m) * beta(m, D - 1, a, k - 1)
        total[0] -= w * im  # i w (re + i im)
        total[1] += w * re
    return tuple(total)


def assert_entry(x, scale_sq, exact, ulps=4):
    """x = sqrt(scale_sq) * exact, real and imaginary part each to ulps
    units of roundoff, decided in exact arithmetic: the band entries are an
    exact sum rounded once, times a square root of a correctly rounded
    quotient (two roundings), times one product, so 4 units bound them."""
    for got, want in zip((complex(x).real, complex(x).imag), exact):
        if want == 0:
            assert got == 0.0
            continue
        y = Fraction(got) / want
        eps = Fraction(ulps) * Fraction(U)
        assert y > 0 and (1 - eps) ** 2 * scale_sq <= y * y <= (1 + eps) ** 2 * scale_sq


def _symbols():
    """the family, every product and bracket of two members, every Laplacian:
    each polynomial the command line assembles"""
    out = dict(FAMILY)
    for a, b in itertools.combinations_with_replacement(NAMES, 2):
        out[f"{a}*{b}"] = FAMILY[a] * FAMILY[b]
        out[f"{{{a},{b}}}"] = bands.poisson(FAMILY[a], FAMILY[b])
    out.update({f"lap {a}": bands.sphere_laplacian(FAMILY[a]) for a in NAMES})
    return out


@pytest.mark.parametrize("m", range(1, 9))
def test_entries_are_exact_beta_integrals(m):
    for name, p in _symbols().items():
        band = dense(bands.toeplitz(p, m), m)
        cov = dense(bands.covariant_part(p, m), m) if name in NAMES else None
        for j, k in itertools.product(range(m + 1), repeat=2):
            scale_sq = (m + 1) ** 2 * math.comb(m, j) * math.comb(m, k)
            assert_entry(band[j, k], scale_sq, exact_toeplitz(p, m, j, k))
            if cov is not None:
                assert_entry(cov[j, k], scale_sq, exact_covariant(p, m, j, k))


def test_bands_are_hermitian_by_construction():
    for p in _symbols().values():
        band = bands.toeplitz(p, 16)
        for d in band:
            assert band[-d] == [x.conjugate() for x in band[d]]


# -- (b) against the quadrature route -----------------------------------------------

def quadrature_error(m):
    """Relative error allowed per matrix entry between the two routes.  The
    quadrature route's section basis loses about 2m units in its log-space
    profiles (max |T_one - I| is 5.2e-14 = 1.8 m units at m = 128 and 4.8e-13 =
    2.1 m units at m = 1024); 8 (m+1) units allow four times that rate.  The
    band entries add 4 units, and a product or a sum of at most five terms
    5 more."""
    return (8 * (m + 1) + 4 + 5) * U


def norm_error(value, m):
    """What the two norm solvers add to a norm: eigvalsh's backward error, a
    few units per dimension, and the bisection's bracket (NORM_ULPS units)
    with its LDL^H backward error, a few units per band width, of the norm."""
    return (m + 17) * U * value


LEVELS = [1, 2, 4, 16, 64, 128]


@pytest.mark.parametrize("m", LEVELS)
def test_operators_match_the_quadrature_route(family, m):
    # D_f is the sum of two terms with entries up to m+1 times those of T_f
    # (the factor m of the first, sqrt(k (m-k+1)) <= (m+1)/2 of the second)
    # that cancel down to -(i/2m) T_{Delta f}: the quadrature route's error
    # is that of the terms
    eps = quadrature_error(m)
    for name, p in FAMILY.items():
        error = np.abs(dense(bands.toeplitz(p, m), m) - toeplitz(family[name], m).mat).max()
        assert error <= eps * size(p, m)
        got = _covariant_part(level_basis(m), family[name])
        error = np.abs(dense(bands.covariant_part(p, m), m) - got).max()
        assert error <= eps * 2 * (m + 1) * size(p, m)


@pytest.mark.parametrize("m", LEVELS)
def test_residuals_match_the_quadrature_route(family, m):
    # T_f, T_g enter m i [T_f, T_g] with factor 2m, T_f T_g with factor 1;
    # each entry of the two routes differs by at most eps times |T|
    eps = quadrature_error(m)
    a = {name: size(p, m) for name, p in FAMILY.items()}
    for f, g in PAIRS:
        p, q = FAMILY[f], FAMILY[g]
        value = bands.dirac_residual(p, q, m)
        bound = eps * (4 * m * a[f] * a[g] + size(bands.poisson(p, q), m)) + norm_error(value, m)
        assert abs(value - dirac_residual(family[f], family[g], m)) <= bound, (f, g)
        value = bands.product_residual(p, q, m)
        bound = eps * (2 * a[f] * a[g] + size(p * q, m)) + norm_error(value, m)
        assert abs(value - product_residual(family[f], family[g], m)) <= bound, (f, g)
    for name, p in FAMILY.items():
        # the identity is exact, so each route's residual is its own error:
        # the bands' from entries within 4 units and one sum, the quadrature
        # route's from D_f's two terms (test_operators_match_the_quadrature_route)
        lap = size(bands.sphere_laplacian(p), m) / (2 * m)
        assert bands.tuynman_residual(p, m) <= 8 * U * (abs_norm(bands.covariant_part(p, m)) + lap)
        assert tuynman_residual(family[name], m) <= eps * (2 * (m + 1) * a[name] + lap)


# -- (c), (d) closed forms -------------------------------------------------------------

README_LEVELS = [4, 8, 16, 32, 64]


def dirac_error(p, q, m, value):
    """Bound on |band Dirac residual - exact|.  Entries of T_p, T_q, T_{p,q}
    are within 4 units (test_entries_are_exact_beta_integrals); an entry of
    C = T_p T_q sums at most five products (5 units more); C - C^H, the factor
    m i and the bracket's subtraction add 3: so ||error|| <= 2m 16 u a_p a_q
    + 5 u a_{p,q}, with a = || |T| ||, plus the norm solver's error."""
    tp, tq = bands.toeplitz(p, m), bands.toeplitz(q, m)
    bracket = bands.toeplitz(bands.poisson(p, q), m)
    return ((32 * m * abs_norm(tp) * abs_norm(tq) + 5 * abs_norm(bracket)) * U
            + norm_error(value, m))


@pytest.mark.parametrize("m", README_LEVELS)
def test_spin_closed_forms_at_readme_levels(m):
    # ||T_x3|| = m/(m+2): the diagonal's largest entry (m - 0) / (m + 2) is
    # one correctly rounded integer quotient, and a diagonal band's norm is
    # its largest |entry|, so the norm is that quotient to the last bit
    assert bands.op_norm(bands.toeplitz(FAMILY["x3"], m), hermitian=True) == m / (m + 2)
    exact = 4 * m / (m + 2) ** 2
    for f, g in (("x1", "x2"), ("x2", "x3"), ("x3", "x1")):
        value = bands.dirac_residual(FAMILY[f], FAMILY[g], m)
        bound = dirac_error(FAMILY[f], FAMILY[g], m, value)
        assert bound < 1e-12 and abs(value - exact) <= bound


def test_dirac_x1_x3sq_at_256_is_pinned():
    # exact value from the exact bands and an exact-dense eigensolver; the
    # quadrature route reads 8.9e-12 relative off it
    value = bands.dirac_residual(FAMILY["x1"], FAMILY["x3sq"], 256)
    bound = dirac_error(FAMILY["x1"], FAMILY["x3sq"], 256, value)
    assert bound < 1e-10 * 0.01515633588202113
    assert abs(value - 0.01515633588202113) <= bound


# -- (e) mutants that must fail ----------------------------------------------------------

def _moved(band, hermitian):
    """op_norm after one entry, the largest below the diagonal, x (1 + 1e-12)"""
    d, i = max(((d, i) for d in band if d > 0 for i in range(len(band[d]))),
               key=lambda di: abs(band[di[0]][di[1]]))
    mutant = {**band, d: list(band[d])}
    mutant[d][i] *= 1 + 1e-12
    return bands.op_norm(mutant, hermitian)


@pytest.mark.parametrize("build, hermitian", [
    (lambda: bands.toeplitz(FAMILY["x1"], 16), True),
    (lambda: bands.toeplitz(FAMILY["x1x2"] + FAMILY["x1"], 16), True),
    (lambda: bands.combine((1, bands.product(bands.toeplitz(FAMILY["x1x2"], 16),
                                             bands.toeplitz(FAMILY["x1"], 16))),
                           (-1, bands.toeplitz(FAMILY["x1x2"] * FAMILY["x1"], 16))), False),
], ids=["tridiagonal", "banded", "non-hermitian"])
def test_one_entry_moves_the_norm(build, hermitian):
    band = build()
    norm = bands.op_norm(band, hermitian)
    assert abs(_moved(band, hermitian) - norm) > 4 * bands.NORM_ULPS * math.ulp(norm)


@pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** -500, 2.0 ** 500, 2.0 ** 1000])
def test_norms_are_exact_under_scaling_by_powers_of_two(scale):
    # the squared entries the pivots and A^H A form would leave the float
    # range at 2^-+1000; op_norm scales by a power of two first, exactly
    for p in (FAMILY["x1"] + FAMILY["x3sq"], FAMILY["x1x2"] + FAMILY["x1"]):
        band = bands.toeplitz(p, 16)
        scaled = {d: [x * scale for x in v] for d, v in band.items()}
        for hermitian in (True, False):
            assert bands.op_norm(scaled, hermitian) == bands.op_norm(band, hermitian) * scale


def test_norms_match_dense_eigensolvers():
    # Hermitian: largest |eigenvalue|; otherwise the largest singular value
    for m in (3, 17, 40):
        for name in ("x1", "x2", "x3sq", "x1x2"):
            band = bands.toeplitz(FAMILY[name] + Fraction(1, 3) * FAMILY["x3"], m)
            want = np.abs(np.linalg.eigvalsh(dense(band, m))).max()
            assert abs(bands.op_norm(band, hermitian=True) - want) <= 64 * m * U * want
        band = bands.combine((1, bands.product(bands.toeplitz(FAMILY["x1x2"], m),
                                               bands.toeplitz(FAMILY["x1"], m))),
                             (-1, bands.toeplitz(FAMILY["x1x2"] * FAMILY["x1"], m)))
        want = np.linalg.norm(dense(band, m), 2)
        assert abs(bands.op_norm(band) - want) <= 64 * m * U * want


def test_dropped_field_term_fails_the_tuynman_check(monkeypatch):
    # the mutant keeps (1 + z zbar) N_zbar and drops -D z N from X^z
    numerator = bands._field_numerator
    monkeypatch.setattr(bands, "_field_numerator", lambda N, D: numerator(N, 0))
    for m in (2, 4, 8, 16):
        assert bands.tuynman_residual(FAMILY["x1"], m) > 0.1


def test_zero_operator_and_commuting_pairs_are_exact_zeros():
    assert bands.op_norm({}) == 0.0
    for m in (1, 4, 64):
        assert bands.dirac_residual(FAMILY["x3"], FAMILY["x3sq"], m) == 0.0
        assert bands.dirac_residual(FAMILY["one"], FAMILY["x1"], m) == 0.0
        assert bands.product_residual(FAMILY["x3"], FAMILY["one"], m) == 0.0


# -- what the command line shares with the quadrature route ---------------------------------

def test_family_sup_norms_are_exact(family):
    for name, (_, sup) in bands.FAMILY.items():
        assert family[name].sup_norm() == sup


def test_loglog_slope_matches_polyfit():
    tables = [[m / (m + 2) for m in README_LEVELS],
              [2 / (m + 2) for m in README_LEVELS],
              [4 * m / (m + 2) ** 2 for m in README_LEVELS],
              [bands.dirac_residual(FAMILY["x1"], FAMILY["x3sq"], m) for m in README_LEVELS]]
    for values in tables:
        want = np.polyfit(np.log(README_LEVELS), np.log(values), 1)[0]
        assert abs(fit_loglog_slope(README_LEVELS, values) - want) <= 1e-12 * abs(want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_loglog_slope([16], [0.1]) is None
