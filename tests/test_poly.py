import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projquant.gaussrat import GaussianRational
from projquant.poly import (
    Polynomial,
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


def test_parse_format_round_trip():
    cases = [
        "X0^2 + X1^2",
        "1/2*X0^2*X1 - X2^3 + 7",
        "3*X0 X1 - 2/5*X2^2",
        "-X0^3 + X1 X2^2",
    ]
    for text in cases:
        f = parse_polynomial(text, nvars=3)
        again = parse_polynomial(format_polynomial(f), nvars=f.nvars)
        assert f == again


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("X0 + ???", nvars=3)
    with pytest.raises(ValueError):
        parse_polynomial("X5", nvars=2)
    # refused from the index alone, before any exponent tuple is built
    with pytest.raises(ValueError, match="^variable X99999999999 exceeds nvars=3$"):
        parse_polynomial("X99999999999", nvars=3)
    # the round-trip covers rational coefficients only: the text
    # "(1+2i)*X0 - 1/3*X1" that format_polynomial writes does not parse
    gaussian = X(0, 2) * GaussianRational(1, 2) - Fraction(1, 3) * X(1, 2)
    assert format_polynomial(gaussian) == "(1+2i)*X0 - 1/3*X1"
    with pytest.raises(ValueError):
        parse_polynomial(format_polynomial(gaussian), nvars=2)


# signs compound and a dangling one adds nothing, '*' is optional anywhere,
# juxtaposed factors multiply, and x is X
X0_ALONE = Polynomial.variable(1, 0)  # X0 in one variable


@pytest.mark.parametrize("text, expected", [
    ("*+0/1", Polynomial.zero(0)),
    ("- -X0", X0_ALONE),
    ("+-X0", -X0_ALONE),
    ("2 3 X0", 6 * X0_ALONE),
    ("X0 2", 2 * X0_ALONE),
    ("X0 X0", X0_ALONE ** 2),
    ("x1", X(1, 2)),
    ("X0 +", X0_ALONE),
    ("X0^0", Polynomial.constant(1, 1)),
    ("4/6 X1", Fraction(2, 3) * X(1, 2)),
])
def test_parse_edge_cases(text, expected):
    assert parse_polynomial(text, nvars=expected.nvars) == expected


@pytest.mark.parametrize("text, message", [
    ("*", "empty polynomial text"),
    ("**", "empty polynomial text"),
    ("", "empty polynomial text"),
    ("   ", "empty polynomial text"),
    ("X0 ?", "cannot parse polynomial at: ' ?'"),
    ("1/0*X0", "zero denominator in coefficient '1/0'"),
])
def test_parse_edge_case_errors(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_polynomial(text, nvars=3)


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
