import copy
import operator
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projquant.gaussrat import GaussianRational, exact_rank
from projquant.poly import Polynomial

I_UNIT = GaussianRational(0, 1)


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


def test_other_operands_get_their_reflected_method():
    # a Polynomial takes the Gaussian rational from either side; a float,
    # which has no exact value, is still refused
    a, x0 = GaussianRational(1, 2), Polynomial.variable(3, 0)
    assert a * x0 == x0 * a == Polynomial(3, {(1, 0, 0): a})
    assert a + x0 == x0 + a
    assert a - x0 == -(x0 - a)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, 0.5)
        with pytest.raises(TypeError):
            op(0.5, a)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_complex_conversion():
    a = GaussianRational(Fraction(1, 4), Fraction(-3, 2))
    assert complex(a) == 0.25 - 1.5j


@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy,
                                 lambda z: pickle.loads(pickle.dumps(z))])
def test_copy_and_pickle_round_trip(dup):
    a = GaussianRational(1, 2)
    b = dup(a)
    assert type(b) is GaussianRational and (b.real, b.imag) == (1, 2)
    assert b == a and hash(b) == hash(a)


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
    """Rank by plain Gauss-Jordan elimination over Q(i); ints enter as
    Fractions, so that no quotient is a float."""
    m = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
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


# -- the number type: a value with zero imaginary part is a Fraction -----------

_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=9)
# GaussianRational(re, 0) is itself drawn: it is the Fraction re
_gaussians = st.builds(GaussianRational, _rationals, _rationals)
_exact_scalars = st.one_of(st.integers(-8, 8), _rationals, _gaussians)

_OPS = {operator.add: lambda p, q, r, s: q + s,
        operator.sub: lambda p, q, r, s: q - s,
        operator.mul: lambda p, q, r, s: p * s + q * r,
        operator.truediv: lambda p, q, r, s: q * r - p * s}  # times |r + si|^2


@settings(max_examples=300, deadline=None)
@given(_gaussians, _exact_scalars, st.sampled_from(list(_OPS)))
def test_arithmetic_gives_a_fraction_exactly_when_the_imaginary_part_is_zero(x, y, op):
    for a, b in ((x, y), (y, x)):
        if op is operator.truediv and b == 0:
            continue
        got = op(a, b)
        real = _OPS[op](Fraction(a.real), Fraction(a.imag), Fraction(b.real), Fraction(b.imag)) == 0
        assert type(got) is (Fraction if real else GaussianRational)
        want = op(complex(a), complex(b))
        assert abs(complex(got) - want) <= 1e-12 * (1 + abs(want))


@given(_rationals, _rationals)
def test_zero_imaginary_part_gives_the_fraction_with_its_hash(x, y):
    assert type(GaussianRational(x, 0)) is Fraction
    assert GaussianRational(x, 0) == x
    z = GaussianRational(x, y) - y * I_UNIT  # real, reached through a Gaussian
    assert type(z) is Fraction and z == x and hash(z) == hash(x)
    assert len({GaussianRational(x), x, Fraction(x)}) == 1
    if y:
        w = GaussianRational(x, y)
        assert w == x + y * I_UNIT and hash(w) == hash(x + y * I_UNIT)


def test_exact_rank_of_int_entries_stays_exact():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    # with int / int quotients the elimination would run in floats, and
    # rounding would leave a nonzero third pivot
    r0, r1 = [3, 9, 4], [807952, 2317639275, 14572021873632519]
    assert exact_rank([r0, r1, [9 * a + 6 * b for a, b in zip(r0, r1)]]) == 2


@st.composite
def mixed_rank_deficient_rows(draw):
    """Rows of ints, Fractions and GaussianRationals, with one row a multiple
    of another, so that the rank is below the row count."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = draw(st.lists(st.lists(_exact_scalars, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    k, c = draw(st.integers(0, rows - 1)), draw(_exact_scalars)
    return m + [[c * x for x in m[k]]]


@settings(max_examples=200, deadline=None)
@given(mixed_rank_deficient_rows())
def test_exact_rank_of_mixed_rows_against_gauss_jordan(m):
    assert exact_rank(m) == _fraction_rank(m) <= len(m) - 1
