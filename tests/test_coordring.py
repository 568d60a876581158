import random
from math import comb

import numpy as np
import pytest

from projquant.coordring import (
    GradedRingPresentation,
    graded_basis_hypersurface,
    hilbert_function,
    hilbert_polynomial_degree,
    hilbert_values,
    krull_dim,
    variety_dim,
)
from projquant.poly import Polynomial, monomials_of_degree

X = lambda i, n=3: Polynomial.variable(n, i)


def test_full_ring_p1():
    R = GradedRingPresentation.full_ring(2)
    for m in range(0, 20):
        assert hilbert_function(R, m) == m + 1


def test_full_ring_binomials():
    for n in range(0, 6):
        R = GradedRingPresentation.full_ring(n + 1)
        for m in range(0, 31):
            assert hilbert_function(R, m) == comb(n + m, n)


def test_plane_cubic_dimensions():
    R = GradedRingPresentation(3, (3,))
    assert hilbert_values(R, range(5)) == [1, 3, 6, 9, 12]
    for m in range(2, 15):
        assert hilbert_function(R, m) == 3 * m


def test_two_quadrics_in_p3():
    R = GradedRingPresentation(4, (2, 2))
    assert hilbert_function(R, 2) == 10 - 2 * 1  # C(5,3) - 2*C(3,3)


def test_negative_degree_is_zero():
    R = GradedRingPresentation(3, (3,))
    assert hilbert_function(R, -1) == 0


def test_pascal_identity():
    for n in range(1, 6):
        for m in range(1, 25):
            assert comb(n + m, n) == comb(n + m - 1, n) + comb(n + m - 1, n - 1)


def test_krull_dimensions():
    assert krull_dim(GradedRingPresentation.full_ring(3)) == 3       # K[P^2]
    assert variety_dim(GradedRingPresentation.full_ring(3)) == 2
    assert krull_dim(GradedRingPresentation(3, (3,))) == 2           # plane cubic
    assert variety_dim(GradedRingPresentation(3, (3,))) == 1
    assert krull_dim(GradedRingPresentation(4, (2,))) == 3           # quadric surface
    assert variety_dim(GradedRingPresentation(4, (2,))) == 2


def test_hilbert_polynomial_degree_eventually_zero():
    # one variable modulo one relation: Artinian, polynomial part is zero
    R = GradedRingPresentation(1, (4,))
    assert hilbert_polynomial_degree(R) == -1
    assert krull_dim(R) == 0


def test_validation():
    with pytest.raises(ValueError):
        GradedRingPresentation(3, (0,))
    with pytest.raises(ValueError):
        GradedRingPresentation(2, (2, 2, 2))
    with pytest.raises(ValueError):
        GradedRingPresentation(3, (2,), (X(0),))  # degree mismatch
    for nvars in (0, -1):  # the message names the variable count
        with pytest.raises(ValueError, match=f"nvars = {nvars}"):
            GradedRingPresentation(nvars)


def test_graded_basis_examples():
    quad = X(1) ** 2 - X(0) * X(2)
    basis = graded_basis_hypersurface(quad, 2)
    # leading monomial is X0 X2, so it and its multiples are excluded
    assert set(basis) == {(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)}
    assert len(basis) == hilbert_function(GradedRingPresentation.hypersurface(quad), 2)

    assert graded_basis_hypersurface(quad, 0) == [(0, 0, 0)]
    linear = Polynomial.variable(2, 0)
    assert graded_basis_hypersurface(linear, 1) == [(0, 1)]


def test_graded_basis_counts_match_hilbert():
    cases = [
        X(0) ** 2 + X(1) * X(2),
        X(1) ** 3 - X(0) * X(2) ** 2,
        X(0) * X(1) * X(2) + X(2) ** 3 + X(0) ** 3,
    ]
    for f in cases:
        R = GradedRingPresentation.hypersurface(f)
        for m in range(0, 10):
            assert len(graded_basis_hypersurface(f, m)) == hilbert_function(R, m)


def _quotient_dim_bruteforce(f, m):
    """Independent oracle: dimension of degree-m monomials modulo f times
    degree-(m-d) polynomials, via the rank of the multiplication matrix."""
    n = f.nvars
    d = f.degree()
    top = monomials_of_degree(n, m)
    if m < d:
        return len(top)
    low = monomials_of_degree(n, m - d)
    index = {mono: i for i, mono in enumerate(top)}
    mat = np.zeros((len(top), len(low)))
    for j, mono in enumerate(low):
        prod = f * Polynomial.monomial(n, mono)
        for mm, c in prod.terms.items():
            mat[index[mm], j] = float(c)
    rank = np.linalg.matrix_rank(mat, tol=1e-9)
    return len(top) - rank


def test_hilbert_matches_bruteforce_on_five_hypersurfaces():
    rng = random.Random(1)
    hypersurfaces = [
        X(0, 3),                                             # line in P^2
        X(1) ** 2 - X(0) * X(2),                             # conic
        X(1) ** 2 * X(2) - 4 * X(0) ** 3,                    # cuspidal cubic
        X(0) ** 4 + X(1) ** 4 + X(2) ** 4,                   # quartic
        Polynomial.variable(4, 0) * Polynomial.variable(4, 3)
        - Polynomial.variable(4, 1) * Polynomial.variable(4, 2),  # quadric in P^3
    ]
    for f in hypersurfaces:
        R = GradedRingPresentation.hypersurface(f)
        for m in range(0, 13):
            assert hilbert_function(R, m) == _quotient_dim_bruteforce(f, m)


def test_cross_module_cubic_dimension():
    # the plane cubic's Hilbert polynomial has degree 1, so the curve is a
    # 1-dimensional variety: the claimed_dim used by the singularity tests
    R = GradedRingPresentation(3, (3,))
    assert hilbert_polynomial_degree(R) == 1
    assert variety_dim(R) == 1
