"""Complex tori C/(Z + Z*tau): Eisenstein invariants, the wp function and its
derivative, and the embedding of the torus into P^2 as a plane cubic.

Every quantity is evaluated through its Fourier (nome) expansion at
tau' = (a tau + b) / (c tau + d), the image of tau in the SL2(Z)
fundamental domain |Re tau'| <= 1/2, |tau'| >= 1.  With lam = c tau + d the
lattices satisfy Z + Z tau = lam (Z + Z tau'), so
wp(z; tau) = lam^-2 wp(z / lam; tau'), wp' picks up lam^-3, g2 lam^-4 and
g3 lam^-6.  There |q'| = |exp(2 pi i tau')| <= exp(-pi sqrt 3) ~ 4.3e-3,
and the number of terms is derived from |q'| so that every truncated tail
is below rounding, wherever the terms of scale lam^-6 are floats.  Points
are evaluated one at a time in Python complex numbers; the tests check them
against the literal truncated lattice sums, within the sums' own tail bound.
Values near a lattice point raise :class:`LatticePointError`.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import cached_property
from itertools import count

#: points closer than this to a lattice point are treated as poles
POLE_GUARD = 1e-8
_EPS = sys.float_info.epsilon


class LatticePointError(ValueError):
    """Raised when evaluating a doubly periodic function at one of its poles."""


class LatticeScaleError(ArithmeticError):
    """Raised when g3, g2 wp or wp^3, which scale as lam^-6, would overflow, or
    when the lattice is too fine for samples to clear the pole guard."""


class Lattice:
    """The lattice Z + Z*tau with tau finite and Im(tau) > 0."""

    def __init__(self, tau: complex):
        if not (cmath.isfinite(tau) and tau.imag > 0):
            raise ValueError(f"tau must be finite with Im(tau) > 0, got {tau!r}")
        self.tau = tau

    @cached_property
    def reduction(self) -> tuple:
        """(tau', lam, nome, terms), computed once per lattice: tau' =
        (a tau + b) / (c tau + d) in the fundamental domain for some
        (a, b, c, d) in SL2(Z), lam = c tau + d so that
        Z + Z tau = lam (Z + Z tau'), nome = exp(2 pi i tau'), and terms the
        Eisenstein series length derived from |nome|."""
        return _reduce(self.tau)

    @cached_property
    def _wp_series(self) -> tuple:
        """(tau', q', 1/12 - 2 sum c_k q'^k, [(c_k, k c_k)], log_cut,
        (2 pi i / lam)^2, (2 pi i / lam)^3), c_k = k / (1 - q'^k), for
        :func:`_wp_pair`, whose Lambert sums omit at most 2 / (1 - |q'|)
        sum_{k>K} k^2 |A|^k after K terms, |A| = exp(-2 pi Im(tau' + w)) <= |q'|.
        That is below rounding of 1/12 at kmax terms, and (with (K+1)^2 <=
        (kmax+1)^2 and a ratio <= 4 |A|) once |A|^(K+1) <= cut."""
        t, lam, q, _ = self.reduction
        qa = abs(q)
        kmax = next(k for k in count(1) if 24 / (1 - qa) * _power_tail(qa, k, 2) <= _EPS)
        coefficients = [(k / (1 - q ** k), k * k / (1 - q ** k)) for k in range(1, kmax + 1)]
        const = 1.0 / 12.0 - 2.0 * sum(c * q ** k for k, (c, _) in enumerate(coefficients, 1))
        cut = _EPS * (1.0 - qa) * (1.0 - 4.0 * qa) / (24.0 * (kmax + 1) ** 2)
        return (t, q, const, coefficients, -math.log(cut) / (2.0 * math.pi),
                (2j * math.pi / lam) ** 2, (2j * math.pi / lam) ** 3)

    @cached_property
    def covering_radius(self) -> float:
        """Largest distance from a point of C to the lattice lam (Z + Z tau'):
        |lam| |tau'| |tau' - s| / (2 Im tau'), s = +-1 the sign of Re tau',
        the circumradius of the acute triangle 0, s, tau'."""
        t, lam, _, _ = self.reduction
        return abs(lam) * abs(t) * math.hypot(1 - abs(t.real), t.imag) / (2 * t.imag)

    def reduce(self, z: complex) -> complex:
        """Translate z into the cell centered at 0."""
        return _to_cell(z, self.tau)

    def distance_to_lattice(self, z: complex) -> float:
        """Distance from z to the lattice, taken in the reduced basis (in a
        skewed tau cell no point around the cell need be nearest)."""
        return _cell_point(self, z)[2]


def _to_cell(w: complex, t: complex) -> complex:
    """w translated by Z + Z t into |Re w| <= 1/2, |Im w| <= Im(t) / 2."""
    w = w - round(w.imag / t.imag) * t
    return w - round(w.real)


def _cell_point(L: Lattice, z: complex) -> tuple:
    """(w, odd, distance to the lattice): w = z / lam in the tau' cell, folded
    by parity (odd) to Im w >= 0, Re w >= 0 on Im w = 0.  As Im tau' >= 0.86,
    0 or the nearest tau' + k is the nearest point of Z + Z tau'."""
    t, lam, _, _ = L.reduction
    w = _to_cell(z / lam, t)
    odd = w.imag < 0 or (w.imag == 0 and w.real < 0)
    if odd:
        w = -w
    s = w - t
    gap, row = abs(w), abs(s - round(s.real))
    return w, odd, (gap if gap < row else row) * abs(lam)


class EisensteinPair:
    """Lattice invariants g2, g3 with the series length and truncation bound
    used (for the nome series a closed-form bound on the omitted terms)."""

    def __init__(self, g2: complex, g3: complex, cutoff: int, tail_bound: float):
        self.g2, self.g3, self.cutoff, self.tail_bound = g2, g3, cutoff, tail_bound

    def discriminant(self) -> complex:
        return self.g2 ** 3 - 27 * self.g3 ** 2

    def cubic_residual(self, p: complex, pp: complex) -> float:
        """|pp^2 - 4 p^3 + g2 p + g3|: how far (p : pp : 1) is off the cubic."""
        return abs(pp * pp - 4 * p * p * p + self.g2 * p + self.g3)


# ---------------------------------------------------------------------------
# nome-series evaluation on the fundamental domain
# ---------------------------------------------------------------------------

def _reduce(tau: complex) -> tuple:
    """Translations and tau -> -1/tau until |Re tau'| <= 1/2 and |tau'| >= 1.

    Returns :attr:`Lattice.reduction`.  gamma = (a, b, c, d) is tracked in
    integers so that lam = c tau + d carries a single rounding.  Each
    inversion multiplies Im tau' by 1/|tau'|^2 > 1; the 1e-12 margin keeps
    rounding from bouncing a point with |tau'| = 1 between tau' and -1/tau'.
    As |lam|^2 = Im tau / Im tau' <= 4/3, LatticeScaleError when |lam|^-6
    times the largest constant it has on the torus path is no float: g3's
    (8 pi^6 / 27) |E6| or g2 wp's (4 pi^6 / 9) |E4| (wp ~ (2 pi / lam)^2 / 12
    where the pole guard leaves points at that scale), |E4|, |E6| bounded.
    """
    t, (a, b, c, d) = tau, (1, 0, 0, 1)
    while True:
        n = math.floor(t.real + 0.5)
        t, a, b = t - n, a - n * c, b - n * d
        if abs(t) >= 1.0 - 1e-12:
            break
        t, a, b, c, d = -1.0 / t, -c, -d, a, b
    lam = c * tau + d
    q = cmath.exp(2j * cmath.pi * t)
    qa = abs(q)
    e4, e6 = (1.0 + x for x in _tails(qa, 0))
    scale = math.pi ** 6 * max(4.0 / 9.0 * e4, 8.0 / 27.0 * e6)
    if math.log(scale) - 6.0 * math.log(abs(lam)) > math.log(sys.float_info.max):
        raise LatticeScaleError(f"tau = {tau!r}: g3, g2 wp and wp^3 scale as lam^-6 "
                                f"and overflow, lam = {lam!r}")
    return t, lam, q, next(n for n in count(1) if max(_tails(qa, n)) <= _EPS)


def _power_tail(qa: float, N: int, p: int) -> float:
    """Bound on sum_{k>N} k^p |q|^k: the terms shrink at least by the factor
    ((N+2)/(N+1))^p |q| < 1 from the first one on."""
    return (N + 1) ** p * qa ** (N + 1) / (1.0 - ((N + 2) / (N + 1)) ** p * qa)


def _tails(qa: float, N: int) -> tuple:
    """Relative truncation errors of the g2 and g3 series after N terms:
    240 and 504 times sum_{n>N} n^p |q|^n / (1 - |q|), p = 3 and 5."""
    return (240.0 * _power_tail(qa, N, 3) / (1.0 - qa),
            504.0 * _power_tail(qa, N, 5) / (1.0 - qa))


def eisenstein(L: Lattice) -> EisensteinPair:
    """Lattice invariants via the normalized Eisenstein q-expansions at tau'.

    g2 = lam^-4 (4 pi^4 / 3) (1 + 240 sum n^3 q'^n / (1 - q'^n)) and
    g3 = lam^-6 (8 pi^6 / 27) (1 - 504 sum n^5 q'^n / (1 - q'^n)); tail_bound
    is the closed-form bound on the omitted terms, scaled by the same weights.
    """
    _, lam, q, N = L.reduction
    qn = [(n, q ** n / (1 - q ** n)) for n in range(1, N + 1)]
    c2, c3 = 4.0 * math.pi ** 4 / 3.0, 8.0 * math.pi ** 6 / 27.0
    g2 = c2 * (1.0 + 240.0 * sum(n ** 3 * x for n, x in qn)) / lam ** 4
    g3 = c3 * (1.0 - 504.0 * sum(n ** 5 * x for n, x in qn)) / lam ** 6
    t2, t3 = _tails(abs(q), N)
    tail = max(c2 * t2 / abs(lam) ** 4, c3 * t3 / abs(lam) ** 6)
    return EisensteinPair(complex(g2), complex(g3), N, tail)


def _wp_pair(L: Lattice, z: complex, guard: float = POLE_GUARD) -> tuple:
    """(wp(z), wp'(z)); LatticePointError within guard of a lattice point.

    With w from :func:`_cell_point`, u = exp(2 pi i w), f(x) = x / (1 - x)^2
    and g(x) = x (1 + x) / (1 - x)^3, wp = (2 pi i / lam)^2 (1/12 - 2 sum_{n>0}
    f(q'^n) + sum_n f(q'^n u)) and wp' = (2 pi i / lam)^3 sum_n sign(n)
    g(q'^n u).  Past n = 0 and -1 (u and B = q' / u) the Lambert form
    sum_{n>0} f(q'^n x) = sum_k c_k (q' x)^k (g: k c_k) runs over A = q' u and
    C = q' B, |C| <= |A| as the fold keeps Im w <= Im tau' / 2; evenness is
    exact, and B is exponentiated directly, never divided by an underflowed u.
    1 - u comes from expm1, as next to the pole the difference would cancel.
    """
    w, odd, distance = _cell_point(L, z)
    if distance <= guard:
        raise LatticePointError(f"z = {z} is within {guard} of a lattice point")
    t, q, const, coefficients, log_cut, k2, k3 = L._wp_series
    x, y = 2.0 * math.pi * w.real, -2.0 * math.pi * w.imag
    e, cos_x, sin_x, h = math.exp(y), math.cos(x), math.sin(x), math.sin(0.5 * x)
    u = complex(e * cos_x, e * sin_x)
    v = complex(2.0 * h * h - math.expm1(y) * cos_x, -e * sin_x)
    B = cmath.exp(2j * math.pi * (t - w))
    rb = 1 / (1 - B)
    fb = B * rb * rb
    s, sp = u / (v * v) + fb, u * (1 + u) / (v * v * v) - fb * (1 + B) * rb
    a, c = A, C = q * u, q * B
    for ck, dk in coefficients[:int(log_cut / (t.imag + w.imag))]:
        s += ck * (a + c)
        sp += dk * (a - c)
        a *= A
        c *= C
    return k2 * (const + s), (-k3 if odd else k3) * sp


def wp(L: Lattice, z: complex) -> complex:
    """Weierstrass wp via its Fourier expansion in u = exp(2 pi i z / lam)."""
    return _wp_pair(L, z)[0]


def wp_prime(L: Lattice, z: complex) -> complex:
    """Derivative of wp, from the term-wise differentiated expansion."""
    return _wp_pair(L, z)[1]


# ---------------------------------------------------------------------------
# derived checks and the torus embedding
# ---------------------------------------------------------------------------

def ode_residual(L: Lattice, z: complex) -> float:
    """|wp'(z)^2 - 4 wp(z)^3 + g2 wp(z) + g3|."""
    return eisenstein(L).cubic_residual(*_wp_pair(L, z))


def embed(L: Lattice, z: complex):
    """Map [z] to (wp(z) : wp'(z) : 1), with the lattice class [0] at (0:1:0).

    The image lies on X1^2 X2 - 4 X0^3 + g2 X0 X2^2 + g3 X2^3 = 0 within a
    tolerance governed by ode_residual.
    """
    from .projgeo import ProjPoint

    try:
        return ProjPoint((*_wp_pair(L, z), 1.0))
    except LatticePointError:
        return ProjPoint((0.0, 1.0, 0.0))
