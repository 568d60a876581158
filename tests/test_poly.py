import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from projquant.gaussrat import GaussianRational
from projquant.poly import (
    Polynomial,
    divides,
    format_polynomial,
    grlex_key,
    monomials_of_degree,
    parse_polynomial,
)

X = lambda i, n=3: Polynomial.variable(n, i)


def test_basic_arithmetic():
    f = X(0) * X(1) + 2 * X(2) ** 2
    g = X(0) * X(1) - 2 * X(2) ** 2
    assert f + g == 2 * X(0) * X(1)
    assert f - f == Polynomial.zero(3)
    assert (f * g) == X(0) ** 2 * X(1) ** 2 - 4 * X(2) ** 4


def test_zero_poly_degree_is_minus_one():
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.zero(2).is_homogeneous()


def test_grlex_leading_monomial():
    # X1^2 - X0 X2: both terms degree 2; X0 X2 = (1,0,1) > (0,2,0) in lex
    f = X(1) ** 2 - X(0) * X(2)
    assert f.leading_monomial() == (1, 0, 1)
    assert sorted([(0, 2, 0), (1, 0, 1)], key=grlex_key)[-1] == (1, 0, 1)


def test_monomials_of_degree_count_and_order():
    monos = monomials_of_degree(3, 4)
    assert len(monos) == 15  # C(6,2)
    assert monos[0] == (4, 0, 0)
    assert monos == sorted(monos, key=grlex_key, reverse=True)


def test_partial_derivative_matches_termwise_oracle():
    rng = random.Random(3)
    for _ in range(20):
        terms = {}
        for _ in range(6):
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        f = Polynomial(3, terms)
        for i in range(3):
            # independent oracle: differentiate the raw term dict
            expected = {}
            for mono, c in terms.items():
                if mono[i] > 0:
                    key = tuple(e - (j == i) for j, e in enumerate(mono))
                    expected[key] = expected.get(key, 0) + c * mono[i]
            assert f.partial(i) == Polynomial(3, expected)


def test_homogeneity_scaling_exact():
    rng = random.Random(11)
    f = 3 * X(0) ** 2 * X(1) - Fraction(1, 2) * X(2) ** 3 + X(0) * X(1) * X(2)
    k = f.degree()
    for _ in range(20):
        pt = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert f.evaluate(tuple(lam * c for c in pt)) == lam ** k * f.evaluate(pt)


def test_float_evaluation_matches_exact():
    f = X(0) ** 2 - Fraction(7, 3) * X(1) * X(2)
    exact = f.evaluate((Fraction(1, 2), Fraction(2), Fraction(3)))
    approx = f.evaluate((0.5 + 0j, 2.0, 3.0))
    assert abs(complex(approx) - float(exact)) < 1e-12
    # evaluate_array: the zero polynomial is 0.0; a unit coefficient adds no
    # factor, so a lone -0.0 coordinate keeps its sign
    assert Polynomial.zero(3).evaluate_array((0.5, 2.0, 3.0)) == 0.0
    assert Polynomial.constant(3, 1).evaluate_array((0.5, 2.0, 3.0)) == 1.0
    assert math.copysign(1.0, X(0).evaluate_array((-0.0, 2.0, 3.0))) == -1.0
    assert (X(0) * X(1) + X(2)).evaluate_array((0.1, 0.3, 0.7)) == 0.1 * 0.3 + 0.7
    assert (2 * X(1)).evaluate_array((None, 1.5, None)) == 3.0  # unused: never read


def test_dehomogenize():
    f = X(1) ** 2 * X(2) - 4 * X(0) ** 3  # Y^2 Z - 4 X^3
    g = f.dehomogenize(2)
    assert g.nvars == 2
    assert g == Polynomial(2, {(0, 2): 1, (3, 0): -4})
    assert Polynomial.variable(2, 0).dehomogenize(0) == Polynomial.constant(1, 1)


def test_dehomogenize_chart_identity():
    # evaluating the chart polynomial agrees with f(p)/alpha_i^deg
    f = X(0) * X(1) ** 2 + 2 * X(2) ** 3
    p = (Fraction(3), Fraction(-2), Fraction(5))
    chart = f.dehomogenize(2)
    assert chart.evaluate((Fraction(3, 5), Fraction(-2, 5))) == \
        f.evaluate(p) / Fraction(5) ** 3


def test_division_single_divisor():
    g = X(1) ** 2 - X(0) * X(2)
    f = g * (X(0) + X(1))
    q, r = f.divmod_single(g)
    assert r.is_zero and q == X(0) + X(1)
    q2, r2 = (f + X(2) ** 3).divmod_single(g)
    assert q2 * g + r2 == f + X(2) ** 3
    assert not r2.is_zero


@pytest.mark.parametrize("g,f,expected", [
    (X(0), X(0) ** 2, True),
    (X(0) ** 2, X(0), False),
    (X(1) ** 2 - X(0) * X(2), (X(1) ** 2 - X(0) * X(2)) * (X(0) + X(1)), True),
])
def test_divides_examples(g, f, expected):
    assert divides(g, f) is expected


def _divides_bruteforce(g, f):
    """Oracle: solve f = q*g for q by linear algebra over the rationals."""
    if f.is_zero:
        return True
    dq = f.degree() - g.degree()
    if dq < 0:
        return False
    qmonos = [m for d in range(dq + 1) for m in monomials_of_degree(f.nvars, d)]
    fmonos = sorted({tuple(a + b for a, b in zip(mq, mg))
                     for mq in qmonos for mg in g.terms} | set(f.terms))
    rows = {m: i for i, m in enumerate(fmonos)}
    # build the linear system column by column and solve by elimination
    mat = [[Fraction(0)] * len(qmonos) + [Fraction(0)] for _ in fmonos]
    for j, mq in enumerate(qmonos):
        for mg, cg in g.terms.items():
            mono = tuple(a + b for a, b in zip(mq, mg))
            mat[rows[mono]][j] += cg
    for m, c in f.terms.items():
        mat[rows[m]][-1] = c
    # gaussian elimination; consistent iff no row reduces to (0..0 | nonzero)
    r = 0
    for c in range(len(qmonos)):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c] / mat[r][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return all(row[-1] == 0 for row in mat[r:])


def test_divides_matches_bruteforce_solver():
    rng = random.Random(5)
    gens = [X(0), X(1) ** 2 - X(0) * X(2), X(0) + X(2), X(0) * X(1) - X(2) ** 2]
    for _ in range(15):
        g = gens[rng.randrange(len(gens))]
        extra = gens[rng.randrange(len(gens))]
        f = g * extra if rng.random() < 0.5 else g * extra + X(1) ** (extra.degree() + g.degree())
        assert divides(g, f) == _divides_bruteforce(g, f)


def test_parse_format_round_trip():
    cases = [
        "X0^2 + X1^2",
        "1/2*X0^2*X1 - X2^3 + 7",
        "3*X0 X1 - 2/5*X2^2",
        "-X0^3 + X1 X2^2",
    ]
    for text in cases:
        f = parse_polynomial(text)
        again = parse_polynomial(format_polynomial(f), nvars=f.nvars)
        assert f == again


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("X0 + ???")
    with pytest.raises(ValueError):
        parse_polynomial("X5", nvars=2)
    # the round-trip covers rational coefficients only: the text
    # "(1+2i)*X0 - 1/3*X1" that format_polynomial writes does not parse
    gaussian = X(0, 2) * GaussianRational(1, 2) - Fraction(1, 3) * X(1, 2)
    assert format_polynomial(gaussian) == "(1+2i)*X0 - 1/3*X1"
    with pytest.raises(ValueError):
        parse_polynomial(format_polynomial(gaussian))


def test_exhaustive_small_products_divide():
    # every product of two linear forms in 2 vars must divide correctly
    lin = [Polynomial(2, {(1, 0): a, (0, 1): b})
           for a, b in product([-1, 1, 2], repeat=2)]
    for g, h in product(lin, repeat=2):
        assert divides(g, g * h)


@st.composite
def rational_polynomials(draw):
    n = draw(st.integers(1, 4))
    monos = st.tuples(*[st.integers(0, 4)] * n)
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
    return Polynomial(n, draw(st.dictionaries(monos, coeffs, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(rational_polynomials())
def test_format_parse_round_trip_property(p):
    assert parse_polynomial(format_polynomial(p), nvars=p.nvars) == p
