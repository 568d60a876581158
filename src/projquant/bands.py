"""Berezin-Toeplitz operators of polynomial symbols as exact Beta-integral
bands, in Python floats: no numpy, no quadrature rule, no section basis.

In the chart h = (1+|z|^2)^-1, and the sphere coordinates and 1 are

    x1 = h (z + zbar),  x2 = -i h (z - zbar),  x3 = h (1 - z zbar),  1 = h (1 + z zbar),

so a polynomial of degree D in x1, x2, x3 is h^D N(z, zbar), N of degree
<= D in z and in zbar.  In the orthonormal sections s_k = c_k z^k of level m
(btquant/sections.py) the entry <s_j, z^a zbar^b h^E s_k> vanishes unless
j - k = a - b, and is the Beta integral

    (m+1) sqrt(C(m,j) C(m,k)) (k+a)! (m+E-k-a)! / (m+E+1)!
        = sqrt(C(m,j) / C(m,k)) (k+1)...(k+a) [(m+E-k-a)! / (m-k)!] / ((m+2)...(m+E+1))

(Bordemann, Meinrenken and Schlichenmaier, CMP 165, 1994).  Everything after
the square root is rational, so an entry of T_f is sqrt(C(m,j)/C(m,k)) times
an exact sum over the monomials of N on its diagonal, summed in integers and
rounded once: within 4 units of roundoff per entry, where the quadrature
route's log-space basis loses about 2m.  No lgamma, which loses digits to
cancellation.

A band is a dict: offset d = j - k -> the entries of that diagonal, Python
floats or complexes, the one at (j, k) at index min(j, k).  A symbol of
degree D has offsets |d| <= D, so its operator, the products the residuals
form and their norms cost O(m D) memory and O(m D^2) time per factorization.

The module also holds what the command line shares with the quadrature route
(btquant.asymptotics, btquant.chart): the test family, the doubling levels,
the log-log slope and the table type.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .gaussrat import GaussianRational
from .poly import Polynomial, parse_polynomial

#: the fixed test family, polynomials in X0, X1, X2 = x1, x2, x3, each with
#: its exact sup norm on the unit sphere: 1, and 1/2 for x1 x2 (at x1 = x2)
FAMILY = {"one": ("1", 1.0), "x1": ("X0", 1.0), "x2": ("X1", 1.0), "x3": ("X2", 1.0),
          "x3sq": ("X2^2", 1.0), "x1x2": ("X0*X1", 0.5)}


def family() -> dict[str, Polynomial]:
    """The test family as polynomials in x1, x2, x3."""
    return {name: parse_polynomial(text, 3) for name, (text, _) in FAMILY.items()}


def doubling_levels(m_min: int, m_max: int) -> list[int]:
    """m_min, 2*m_min, ... capped so the last entry is m_max."""
    if m_min < 1 or m_max < m_min:
        raise ValueError("need 1 <= m_min <= m_max")
    levels = []
    m = m_min
    while m < m_max:
        levels.append(m)
        m *= 2
    levels.append(m_max)
    return levels


def fit_loglog_slope(ms, values) -> float | None:
    """Least-squares slope of log(value) against log(m), in closed form;
    None when fewer than two distinct levels leave no line to fit, or when a
    value <= 0 has no logarithm."""
    if len(set(ms)) < 2 or not all(v > 0 for v in values):
        return None
    x = [math.log(m) for m in ms]
    y = [math.log(v) for v in values]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    return (math.fsum(d * (yi - y_mean) for d, yi in zip(dx, y))
            / math.fsum(d * d for d in dx))


class ConvergenceTable:
    """Residuals at the levels, with their log-log slope."""

    def __init__(self, levels: tuple, values: tuple, slope: float | None):
        self.levels, self.values, self.slope = levels, values, slope

    def rows(self):
        return list(zip(self.levels, self.values))


def convergence_table(residual, levels) -> ConvergenceTable:
    """residual(m) at each level, with the log-log slope of the values."""
    values = tuple(residual(m) for m in levels)
    return ConvergenceTable(tuple(levels), values, fit_loglog_slope(levels, values))


# ---------------------------------------------------------------------------
# derived symbols, as polynomials in x1, x2, x3
# ---------------------------------------------------------------------------

def poisson(p: Polynomial, q: Polynomial) -> Polynomial:
    """{p, q} on the unit sphere, from {x_i, x_j} = 2 eps_ijk x_k (chart.py's
    convention) and the Leibniz rule: 2 x . (grad p x grad q)."""
    dp, dq = [p.partial(i) for i in range(3)], [q.partial(i) for i in range(3)]
    out = Polynomial.zero(3)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out = out + 2 * Polynomial.variable(3, k) * (dp[i] * dq[j] - dp[j] * dq[i])
    return out


def sphere_laplacian(p: Polynomial) -> Polynomial:
    """Delta of p(x1, x2, x3) on the unit sphere, as a polynomial.  From
    Delta x_i = -4 x_i, <grad x_i, grad x_j> = 2 (delta_ij - x_i x_j) and
    Euler's sum_i x_i d_i X^a = d X^a for a term of degree d:
    Delta X^a = 2 sum_i d_i d_i X^a - 2 d (d + 1) X^a."""
    out = Polynomial(3, {m: -2 * sum(m) * (sum(m) + 1) * c for m, c in p.terms.items()})
    for i in range(3):
        out = out + 2 * p.partial(i).partial(i)
    return out


# ---------------------------------------------------------------------------
# exact entries
# ---------------------------------------------------------------------------

_Z, _ZBAR = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
#: h^-1 x1, h^-1 x2 and h^-1 x3 as polynomials in z, zbar; then h^-1
_CHART = (_Z + _ZBAR, GaussianRational(0, -1) * (_Z - _ZBAR), 1 - _Z * _ZBAR)
_INVERSE_H = 1 + _Z * _ZBAR


def _chart_form(p: Polynomial) -> tuple[int, dict]:
    """p = h^D N(z, zbar), D = deg p: D and N as (a, b) -> (re, im, den)
    integers, the coefficient of z^a zbar^b being (re + i im) / den."""
    if not all(isinstance(c, Fraction) for c in p.terms.values()):
        raise ValueError(f"band symbols have rational coefficients, got {p}")
    D = max(p.degree(), 0)
    N = Polynomial.zero(2)
    for mono, c in p.terms.items():
        term = _INVERSE_H ** (D - sum(mono)) * c
        for x, e in zip(_CHART, mono):
            term = term * x ** e
        N = N + term
    den = math.lcm(*(x.denominator for c in N.terms.values() for x in (c.real, c.imag)))
    return D, {mono: (int(c.real * den), int(c.imag * den), den) for mono, c in N.terms.items()}


def _beta(m: int, E: int, a: int, c: int) -> tuple[int, int]:
    """<s_j, z^a zbar^b h^E s_c> / sqrt(C(m,j) / C(m,c)) as an integer
    ratio: (c+1)...(c+a) [(m+E-c-a)! / (m-c)!] / ((m+2)...(m+E+1))."""
    num = math.prod(range(c + 1, c + a + 1))
    den = math.prod(range(m + 2, m + E + 2))
    if E >= a:
        num *= math.prod(range(m - c + 1, m - c + E - a + 1))
    else:
        den *= math.prod(range(m - c + E - a + 1, m - c + 1))
    return num, den


def _entry(m: int, j: int, k: int, re: int, im: int, den: int):
    """sqrt(C(m,j) / C(m,k)) (re + i im) / den: each quotient of integers
    and the square root correctly rounded, a float when im = 0."""
    if j == k:
        scale = 1.0
    elif j > k:
        scale = math.sqrt(math.prod(range(m - j + 1, m - k + 1)) / math.prod(range(k + 1, j + 1)))
    else:
        scale = math.sqrt(math.prod(range(j + 1, k + 1)) / math.prod(range(m - k + 1, m - j + 1)))
    value = scale * (re / den)
    return complex(value, scale * (im / den)) if im else value


def _exact_band(m: int, offsets, terms) -> dict:
    """The band whose entry (j, k), j - k = d, is sqrt(C(m,j)/C(m,k)) times the
    exact sum of terms(d, k): (re, im, den) integer triples."""
    band = {}
    for d in offsets:
        entries = []
        for i in range(m + 1 - abs(d)):
            j, k = (i + d, i) if d >= 0 else (i, i - d)
            re = im = 0
            den = 1
            for r, s, t in terms(d, k):
                if t == den:
                    re, im = re + r, im + s
                else:
                    re, im, den = re * t + r * den, im * t + s * den, den * t
            entries.append(_entry(m, j, k, re, im, den))
        band[d] = entries
    return band


def _hermitian(band: dict) -> dict:
    """The band completed above from on and below its diagonal: entry
    (k, j) = conj (j, k)."""
    return {**band, **{-d: [x.conjugate() for x in v] for d, v in band.items() if d > 0}}


def toeplitz(p: Polynomial, m: int) -> dict:
    """T_p at level m: the band of <s_j, p s_k>, for a polynomial p in x1, x2,
    x3 with rational coefficients.  The entries on and below the diagonal
    are exact sums; those above are their conjugates, so the band is
    Hermitian by construction."""
    D, N = _chart_form(p)
    by_offset = {}
    for (a, b), coeff in N.items():
        by_offset.setdefault(a - b, []).append((a, coeff))

    def terms(d, k):
        for a, (re, im, den) in by_offset[d]:
            num, beta_den = _beta(m, D, a, k)
            yield re * num, im * num, den * beta_den

    return _hermitian(_exact_band(m, sorted(d for d in by_offset if d >= 0), terms))


def _field_numerator(N: dict, D: int) -> dict:
    """M = (1 + z zbar) N_zbar - D z N, as N's (a, b) -> (re, im, den) with
    N's den: for p = h^D N, (1+|z|^2)^2 p_zbar = h^(D-1) M."""
    M = {}
    for (a, b), (re, im, den) in N.items():
        # b z^a zbar^(b-1) and b z^(a+1) zbar^b from (1 + z zbar) N_zbar; -D z N
        for mono, c in (((a, b - 1), b), ((a + 1, b), b), ((a + 1, b), -D)):
            if c:
                r, s, _ = M.get(mono, (0, 0, den))
                M[mono] = (r + c * re, s + c * im, den)
    return {mono: coeff for mono, coeff in M.items() if coeff[:2] != (0, 0)}


def covariant_part(p: Polynomial, m: int) -> dict:
    """D_p, the projection of -nabla_{X_p} onto the level-m sections
    (operators._covariant_part), as a band.  For p = h^D N,
    (1+|z|^2)^2 p_zbar = h^(D-1) M with M = (1 + z zbar) N_zbar - D z N, so
    X^z = -(i/m) h^(D-1) M, and the docstring's two terms are

        m <s_j, X^z zbar h s_k> = -i sum M_ab <s_j, z^a zbar^(b+1) h^D s_k>,
        -sqrt(k (m-k+1)) <s_j, X^z s_(k-1)>
            = (i/m) sqrt(k (m-k+1)) sum M_ab <s_j, z^a zbar^b h^(D-1) s_(k-1)>.

    Both sit on offset a - b - 1, and sqrt(C(m,j)/C(m,k-1)) sqrt(k (m-k+1)) / m
    is sqrt(C(m,j)/C(m,k)) (m-k+1)/m, so each entry is one exact sum.
    """
    if m < 1:
        raise ValueError("geometric quantization needs level m >= 1")
    D, N = _chart_form(p)
    by_offset = {}
    for (a, b), coeff in _field_numerator(N, D).items():
        by_offset.setdefault(a - b - 1, []).append((a, coeff))

    def terms(d, k):
        for a, (re, im, den) in by_offset[d]:
            num, beta_den = _beta(m, D, a, k)  # -i M_ab, column k
            yield im * num, -re * num, den * beta_den
            if k >= 1:  # i M_ab (m-k+1)/m, column k-1
                num, beta_den = _beta(m, D - 1, a, k - 1)
                num *= m - k + 1
                yield -im * num, re * num, den * beta_den * m

    return _exact_band(m, sorted(by_offset), terms)


# ---------------------------------------------------------------------------
# band arithmetic
# ---------------------------------------------------------------------------

def _size(band: dict) -> int:
    """m + 1, read off a nonempty diagonal: one of offset d has m + 1 - |d|
    entries (a diagonal past the corner of the matrix has none)."""
    return max((len(v) + abs(d) for d, v in band.items() if v), default=0)


def product(A: dict, B: dict) -> dict:
    """The band of the matrix product A B."""
    if not A or not B:
        return {}
    n, out = _size(A), {}
    for p, a in A.items():
        for q, b in B.items():
            # C[l + p, l - q] += A[l + p, l] B[l, l - q] over the rows l of B
            lo, hi = max(0, -p, q), min(n, n - p, n + q)
            if lo >= hi:
                continue
            c = out.setdefault(p + q, [0.0] * (n - abs(p + q)))
            ia, ib, ic = lo + min(p, 0), lo - max(q, 0), lo + min(p, -q)
            count = hi - lo
            c[ic:ic + count] = [x + y * z for x, y, z in
                                zip(c[ic:ic + count], a[ia:ia + count], b[ib:ib + count])]
    return out


def adjoint(A: dict) -> dict:
    """The band of the conjugate transpose."""
    return {-d: [x.conjugate() for x in v] for d, v in A.items()}


def combine(*terms) -> dict:
    """sum of c * A over the (c, A) pairs given."""
    out = {}
    for c, A in terms:
        for d, v in A.items():
            if d in out:
                out[d] = [x + c * y for x, y in zip(out[d], v)]
            else:
                out[d] = [c * y for y in v]
    return out


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

#: bisection stops once the bracket is this many units of its upper end wide
NORM_ULPS = 4


def op_norm(A: dict, hermitian: bool = False) -> float:
    """Spectral norm of a band.  A Hermitian band (read on and below its
    diagonal, like eigvalsh) gives its largest |eigenvalue|, any other its
    largest singular value, sqrt(lambda_max(A^H A)): bisection on the
    inertia of LDL^H of sigma I -+ A, without pivoting, from the Gershgorin
    bracket [max |a_ii|, max row sum of |a_ij|], until the bracket is
    NORM_ULPS units of its upper end wide; for a diagonal band it is closed
    from the start.  Diagonals that are all zero do not count."""
    A = {d: v for d, v in A.items() if any(v)}
    if not A:
        return 0.0
    # scaled by a power of two, exactly, so that no square below overflows or underflows
    exponent = max(math.frexp(max(abs(x) for v in A.values() for x in v))[1], -1021)
    factor = math.ldexp(1.0, -exponent)
    A = {d: [x * factor for x in v] for d, v in A.items()}
    if hermitian:
        return math.ldexp(_hermitian_norm(A), exponent)
    square = product(adjoint(A), A)
    return math.ldexp(math.sqrt(_hermitian_norm(square, definite=True)), exponent)


def _hermitian_norm(A: dict, definite: bool = False) -> float:
    """Largest |eigenvalue| of the Hermitian band read on and below its
    diagonal; definite: the band is positive semidefinite, so only sigma I - A
    need be tested."""
    n = _size(A)
    diag = [x.real for x in A.get(0, [0.0] * n)]
    lower = [A.get(d, [0.0] * (n - d)) for d in range(1, max(A) + 1)]
    radius = [abs(x) for x in diag]  # Gershgorin: row sums of |a_ij|
    for d, v in enumerate(lower, 1):
        for i, x in enumerate(v):
            radius[i] += abs(x)
            radius[i + d] += abs(x)
    lo, hi = max(abs(x) for x in diag), max(radius)
    signs = (1.0,) if definite else (1.0, -1.0)
    while hi - lo > NORM_ULPS * math.ulp(hi):
        mid = 0.5 * (lo + hi)
        if all(_positive_definite(mid, s, diag, lower) for s in signs):
            hi = mid
        else:
            lo = mid
    return hi


def _positive_definite(sigma: float, sign: float, diag: list, lower: list) -> bool:
    """Whether sigma I - sign A has only positive pivots in LDL^H, row by row
    without pivoting: the test stops at the first pivot <= 0."""
    n, w = len(diag), len(lower)
    pivots, rows = [], []  # rows[i][r] = L[i, i - w + r]
    for i in range(n):
        t = [0.0] * w  # t[r] = L[i, j] pivot_j, j = i - w + r
        for r in range(max(0, w - i), w):
            j = i - w + r
            v = sign * -lower[w - r - 1][j]  # b_ij = -sign a_ij, a_ij at offset i - j
            row_j = rows[j]
            for r2 in range(max(0, w - i), r):  # k = i - w + r2 < j
                v -= t[r2] * row_j[r2 - r + w].conjugate()
            t[r] = v
        row = [t[r] / pivots[i - w + r] if i - w + r >= 0 else 0.0 for r in range(w)]
        pivot = sigma - sign * diag[i] - sum((x * y.conjugate()).real for x, y in zip(t, row))
        if pivot <= 0:
            return False
        pivots.append(pivot)
        rows.append(row)
    return True


# ---------------------------------------------------------------------------
# the residuals the command line reports
# ---------------------------------------------------------------------------

def dirac_residual(p: Polynomial, q: Polynomial, m: int) -> float:
    """|| m i [T_p, T_q] - T_{p,q} || at level m.  With T_p, T_q Hermitian
    the commutator is C - C^H for C = T_p T_q, formed on and below the
    diagonal and conjugated above, so the residual is Hermitian by
    construction."""
    C = product(toeplitz(p, m), toeplitz(q, m))
    bracket = toeplitz(poisson(p, q), m)
    n, lower = m + 1, {}
    for d in sorted({d for d in (*C, *bracket) if d >= 0}):
        c, above = C.get(d, [0.0] * (n - d)), C.get(-d, [0.0] * (n - d))
        b = bracket.get(d, [0.0] * (n - d))
        lower[d] = [m * 1j * (x - y.conjugate()) - z for x, y, z in zip(c, above, b)]
    if 0 in lower:
        lower[0] = [x.real for x in lower[0]]
    return op_norm(_hermitian(lower), hermitian=True)


def product_residual(p: Polynomial, q: Polynomial, m: int) -> float:
    """|| T_p T_q - T_{p q} || at level m."""
    return op_norm(combine((1, product(toeplitz(p, m), toeplitz(q, m))),
                           (-1, toeplitz(p * q, m))))


def tuynman_residual(p: Polynomial, m: int) -> float:
    """|| Q_p - i T_{p - Delta p / 2m} || at level m, Q_p = i T_p + D_p: the
    i T_p terms cancel, so it is || D_p + (i/2m) T_{Delta p} ||, an identity
    between two exact bands; what is left is rounding."""
    return op_norm(combine((1, covariant_part(p, m)),
                           (0.5j / m, toeplitz(sphere_laplacian(p), m))))
