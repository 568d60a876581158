import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projquant.gaussrat import GaussianRational, I_UNIT, exact_rank


def test_arithmetic_field_axioms():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(Fraction(-2, 3), Fraction(5))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a
    assert a / a == GaussianRational(1)
    assert a * a.conjugate() == GaussianRational(a.norm_sq())


def test_i_squares_to_minus_one():
    assert I_UNIT * I_UNIT == GaussianRational(-1)


def test_mixed_ops_with_ints_and_fractions():
    a = GaussianRational(1, 1)
    assert 2 * a == GaussianRational(2, 2)
    assert a + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert (a - 1) == I_UNIT


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_complex_conversion():
    a = GaussianRational(Fraction(1, 4), Fraction(-3, 2))
    assert complex(a) == 0.25 - 1.5j


def _random_exact_matrix(rng, rows, cols, rank):
    """Random matrix of known rank: product of full-rank factors."""
    left = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rank)]
            for _ in range(rows)]
    right = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank))
             for j in range(cols)] for i in range(rows)]


def test_exact_rank_against_numpy_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        target = rng.randint(0, min(rows, cols))
        m = _random_exact_matrix(rng, rows, cols, target)
        a = np.array([[float(x) for x in r] for r in m])
        s = np.linalg.svd(a, compute_uv=False)
        np_rank = int(np.sum(s > 1e-9 * max(s[0], 1e-30))) if s.size else 0
        assert exact_rank(m) == np_rank


def test_exact_rank_gaussian_entries():
    i = I_UNIT
    # rows (1, i) and (i, -1) are proportional over Q(i)
    assert exact_rank([[GaussianRational(1), i], [i, GaussianRational(-1)]]) == 1
    assert exact_rank([[GaussianRational(1), i], [i, GaussianRational(1)]]) == 2


def test_exact_rank_zero_and_empty():
    assert exact_rank([[Fraction(0), Fraction(0)]]) == 0
    assert exact_rank([]) == 0


def _fraction_rank(rows):
    """Rank by plain Gauss-Jordan elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_rational_matrices(draw):
    """Products of random factors, so that rank deficiency is common; the
    entries are rationals and some factors have zero rows or columns."""
    rows, cols, inner = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    return [[sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


@settings(max_examples=200, deadline=None)
@given(low_rank_rational_matrices())
def test_exact_rank_against_fraction_elimination(m):
    assert exact_rank(m) == _fraction_rank(m)
