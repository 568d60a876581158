"""Complex tori C/(Z + Z*tau): Eisenstein invariants, the wp function and its
derivative, and the embedding of the torus into P^2 as a plane cubic.

Every quantity is evaluated through its Fourier (nome) expansion at
tau' = (a tau + b) / (c tau + d), the image of tau in the SL2(Z)
fundamental domain |Re tau'| <= 1/2, |tau'| >= 1.  With lam = c tau + d the
lattices satisfy Z + Z tau = lam (Z + Z tau'), so
wp(z; tau) = lam^-2 wp(z / lam; tau'), wp' picks up lam^-3, g2 lam^-4 and
g3 lam^-6.  There |q'| = |exp(2 pi i tau')| <= exp(-pi sqrt 3) ~ 4.3e-3,
and the number of terms is derived from |q'| so that every truncated tail
is below rounding, at any Im(tau) > 0 where neither lam^6 nor lam^-6 overflows.
The tests check these values against the literal truncated lattice sums,
within the sums' own tail bound.  Values near a lattice point are rejected
with :class:`LatticePointError` instead of returning infinities.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .projgeo import ProjPoint

#: points closer than this to a lattice point are treated as poles
POLE_GUARD = 1e-8


class LatticePointError(ValueError):
    """Raised when evaluating a doubly periodic function at one of its poles."""


class LatticeScaleError(ArithmeticError):
    """Raised when lam^6 or lam^-6 of a lattice's reduction overflows."""


@dataclass(frozen=True)
class Lattice:
    """The lattice Z + Z*tau with tau finite and Im(tau) > 0."""

    tau: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.tau) and self.tau.imag > 0):
            raise ValueError(f"tau must be finite with Im(tau) > 0, got {self.tau!r}")

    @cached_property
    def reduction(self) -> tuple:
        """(tau', lam, nome, terms), computed once per lattice: tau' =
        (a tau + b) / (c tau + d) in the fundamental domain for some
        (a, b, c, d) in SL2(Z), lam = c tau + d so that
        Z + Z tau = lam (Z + Z tau'), nome = exp(2 pi i tau'), and terms the
        nome-series length derived from |nome|."""
        return _reduce(self.tau)

    def reduce(self, z):
        """Translate z (a number or an array) into the cell centered at 0."""
        return _to_cell(np.asarray(z, dtype=complex), self.tau)[()]

    def distance_to_lattice(self, z):
        """Distance from z (a number or an array) to the lattice.  It is taken
        in the reduced basis Z + Z tau = lam (Z + Z tau'), where the nearest
        point to the centred cell is one of the nine around it; in a skewed
        tau cell it need not be."""
        t, lam = self.reduction[:2]
        w = _to_cell(np.asarray(z, dtype=complex) / lam, t)
        near = np.array([0, 1, -1, t, -t, 1 + t, -1 - t, 1 - t, -1 + t])
        return (np.min(np.abs(w[..., None] - near), axis=-1) * abs(lam))[()]


def _to_cell(w, t):
    """w translated by Z + Z t into |Re w| <= 1/2, |Im w| <= Im(t) / 2."""
    w = w - np.round(w.imag / t.imag) * t
    return w - np.round(w.real)


@dataclass(frozen=True)
class EisensteinPair:
    """Lattice invariants g2, g3 with the series length and truncation bound
    used (for the nome series a closed-form bound on the omitted terms)."""

    g2: complex
    g3: complex
    cutoff: int
    tail_bound: float

    def discriminant(self) -> complex:
        return self.g2 ** 3 - 27 * self.g3 ** 2

    def cubic_residual(self, p, pp):
        """|pp^2 - 4 p^3 + g2 p + g3|: how far (p : pp : 1) is off the cubic."""
        return abs(pp ** 2 - 4 * p ** 3 + self.g2 * p + self.g3)


def _check_off_lattice(L: Lattice, z):
    if np.any(L.distance_to_lattice(z) <= POLE_GUARD):
        raise LatticePointError(f"z = {z} is within {POLE_GUARD} of a lattice point")


# ---------------------------------------------------------------------------
# nome-series evaluation on the fundamental domain
# ---------------------------------------------------------------------------

#: zeta(3) and zeta(5): sigma_3(k) <= zeta(3) k^3 and sigma_5(k) <= zeta(5) k^5
_ZETA3, _ZETA5 = 1.2020569031595942, 1.0369277551433699


def _reduce(tau: complex) -> tuple:
    """Translations and tau -> -1/tau until |Re tau'| <= 1/2 and |tau'| >= 1.

    Returns :attr:`Lattice.reduction`.  gamma = (a, b, c, d) is tracked in
    integers so that lam = c tau + d carries a single rounding.  Each
    inversion multiplies Im tau' by 1/|tau'|^2 > 1; the 1e-12 margin keeps
    rounding from bouncing a point with |tau'| = 1 between tau' and -1/tau'.
    Raises LatticeScaleError when lam^6 or lam^-6 overflows (g3 scales as lam^-6).
    """
    t, (a, b, c, d) = tau, (1, 0, 0, 1)
    while True:
        n = math.floor(t.real + 0.5)
        t, a, b = t - n, a - n * c, b - n * d
        if abs(t) >= 1.0 - 1e-12:
            break
        t, a, b, c, d = -1.0 / t, -c, -d, a, b
    lam = c * tau + d
    if abs(6.0 * math.log(abs(lam))) > math.log(sys.float_info.max):
        raise LatticeScaleError(f"tau = {tau!r}: lam^6 or lam^-6 overflows, lam = {lam!r}")
    q = cmath.exp(2j * cmath.pi * t)
    return t, lam, q, _series_terms(abs(q))


def _power_tail(qa: float, N: int, p: int) -> float:
    """Bound on sum_{k>N} k^p |q|^k: the terms shrink at least by the factor
    ((N+2)/(N+1))^p |q| < 1 from the first one on."""
    return (N + 1) ** p * qa ** (N + 1) / (1.0 - ((N + 2) / (N + 1)) ** p * qa)


def _tails(qa: float, N: int) -> tuple:
    """Relative truncation errors after N nome terms, |q| = qa <= 4.4e-3.

    The g2 and g3 series against their leading 1: 240 zeta(3) and
    504 zeta(5) times the power tails.  The wp and wp' series against the
    constant 1/12: with z folded to 0 <= Im z <= Im(tau')/2, each term n
    is at most 1.31 (|q^n u| + |q^n / u| + 2 |q^n|) <= 5.24 |q|^(n - 1/2).
    """
    return (240.0 * _ZETA3 * _power_tail(qa, N, 3),
            504.0 * _ZETA5 * _power_tail(qa, N, 5),
            64.0 * qa ** (N + 0.5))


def _series_terms(qa: float) -> int:
    """The fewest nome terms (at least 1) whose tails are below rounding."""
    N = 1
    while max(_tails(qa, N)) > sys.float_info.epsilon:
        N += 1
    return N


def _divisor_sigma(N: int, power: int) -> np.ndarray:
    sig = np.zeros(N + 1)
    for d in range(1, N + 1):
        sig[d::d] += float(d) ** power
    return sig


def eisenstein(L: Lattice) -> EisensteinPair:
    """Lattice invariants via the normalized Eisenstein q-expansions at tau'.

    g2 = lam^-4 (4 pi^4 / 3) (1 + 240 sum sigma_3(k) q'^k) and
    g3 = lam^-6 (8 pi^6 / 27) (1 - 504 sum sigma_5(k) q'^k); tail_bound is
    the closed-form bound on the omitted terms, scaled by the same weights.
    """
    _, lam, q, N = L.reduction
    qk = q ** np.arange(1, N + 1)
    c2, c3 = 4.0 * math.pi ** 4 / 3.0, 8.0 * math.pi ** 6 / 27.0
    g2 = c2 * (1.0 + 240.0 * np.sum(_divisor_sigma(N, 3)[1:] * qk)) / lam ** 4
    g3 = c3 * (1.0 - 504.0 * np.sum(_divisor_sigma(N, 5)[1:] * qk)) / lam ** 6
    t2, t3, _ = _tails(abs(q), N)
    tail = max(c2 * t2 / abs(lam) ** 4, c3 * t3 / abs(lam) ** 6)
    return EisensteinPair(complex(g2), complex(g3), N, float(tail))


def _u_series(L: Lattice, z):
    """(u, 1 - u, q'^n u, q'^n / u, odd) for the u = exp(2 pi i w) expansion.

    w = z / lam is reduced into the tau' cell and folded by parity to
    Im w >= 0 (Re w >= 0 on Im w = 0); odd marks the folded points, where
    wp' changes sign.  The fold keeps |u| <= 1 and |q'^n / u| <=
    |q'|^(n - 1/2); q'/u is exponentiated directly so that nothing overflows
    or divides by an underflowed u.  1 - u comes from expm1: near the pole
    w = 0 the difference would cancel to a relative error eps / |2 pi w|.
    q'^n u and q'^n / u have a leading terms axis.
    """
    _check_off_lattice(L, z)
    t, lam, q, N = L.reduction
    w = _to_cell(np.atleast_1d(z) / lam, t)
    odd = (w.imag < 0) | ((w.imag == 0) & (w.real < 0))
    w = np.where(odd, -w, w)
    qn = q ** np.arange(N).reshape((-1,) + (1,) * w.ndim)  # q'^(n-1)
    x = 2j * cmath.pi * w
    u = np.exp(x)
    return u, -np.expm1(x), qn * q * u, qn * np.exp(2j * cmath.pi * (t - w)), odd


def wp(L: Lattice, z):
    """Weierstrass wp via its Fourier expansion in u = exp(2 pi i z / lam).

    z is a number or an array of numbers (the result has its shape).  The
    parity fold maps z and -z to the same w, so evenness is exact.
    """
    u, v, a, b, _ = _u_series(L, z)
    _, lam, q, N = L.reduction
    qn = q ** np.arange(1, N + 1)
    s = (1.0 / 12.0 - np.sum(2 * qn / (1 - qn) ** 2) + u / v ** 2
         + np.sum(a / (1 - a) ** 2 + b / (1 - b) ** 2, axis=0))
    s = (2j * cmath.pi) ** 2 / lam ** 2 * s
    return s if np.ndim(z) else complex(s[0])


def wp_prime(L: Lattice, z):
    """Derivative of wp, from the term-wise differentiated expansion."""
    u, v, a, b, odd = _u_series(L, z)
    lam = L.reduction[1]
    s = (u * (1 + u) / v ** 3
         + np.sum(a * (1 + a) / (1 - a) ** 3 - b * (1 + b) / (1 - b) ** 3, axis=0))
    s = np.where(odd, -1.0, 1.0) * (2j * cmath.pi) ** 3 / lam ** 3 * s
    return s if np.ndim(z) else complex(s[0])


# ---------------------------------------------------------------------------
# derived checks and the torus embedding
# ---------------------------------------------------------------------------

def ode_residual(L: Lattice, z: complex) -> float:
    """|wp'(z)^2 - 4 wp(z)^3 + g2 wp(z) + g3|, for a number or an array z."""
    return eisenstein(L).cubic_residual(wp(L, z), wp_prime(L, z))


def embed(L: Lattice, z: complex) -> ProjPoint:
    """Map [z] to (wp(z) : wp'(z) : 1), with the lattice class [0] at (0:1:0).

    The image lies on X1^2 X2 - 4 X0^3 + g2 X0 X2^2 + g3 X2^3 = 0 within a
    tolerance governed by ode_residual.
    """
    from .projgeo import ProjPoint

    if L.distance_to_lattice(z) <= POLE_GUARD:
        return ProjPoint((0.0, 1.0, 0.0))
    return ProjPoint((wp(L, z), wp_prime(L, z), 1.0))
