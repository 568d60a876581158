"""Complex tori C/(Z + Z*tau): Eisenstein invariants, the wp function and its
derivative, and the embedding of the torus into P^2 as a plane cubic.

Two evaluation routes are provided for every quantity:

* ``*_lattice`` functions sum the defining lattice series over the symmetric
  square truncation max(|m|, |n|) <= N.  They converge like O(1/N^2) and
  serve as the independent cross-check oracle.
* The default functions evaluate the same objects through their Fourier
  (nome) expansions, which converge geometrically in q = exp(2*pi*i*tau).
  At the default cutoff they are accurate to rounding, which is what the
  cubic-membership and differential-equation tolerances assume.

Both routes agree within the lattice truncation's own tail bound; tests pin
this.  Values near a lattice point are rejected with
:class:`LatticePointError` instead of returning infinities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .projgeo import ProjPoint

#: default series cutoff for all torus computations
DEFAULT_CUTOFF = 60

#: points closer than this to a lattice point are treated as poles
POLE_GUARD = 1e-8


class LatticePointError(ValueError):
    """Raised when evaluating a doubly periodic function at one of its poles."""


@dataclass(frozen=True)
class Lattice:
    """The lattice Z + Z*tau with Im(tau) > 0."""

    tau: complex

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise ValueError("Im(tau) must be positive")

    @property
    def nome(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.tau)

    def reduce(self, z):
        """Translate z (a number or an array) into the cell centered at 0."""
        z = np.asarray(z, dtype=complex)
        z = z - np.round(z.imag / self.tau.imag) * self.tau
        return (z - np.round(z.real))[()]

    def distance_to_lattice(self, z):
        near = np.array([0, 1, -1, self.tau, -self.tau, 1 + self.tau, -1 - self.tau,
                         1 - self.tau, -1 + self.tau])
        return np.min(np.abs(np.asarray(self.reduce(z))[..., None] - near), axis=-1)


@dataclass(frozen=True)
class EisensteinPair:
    """Lattice invariants g2, g3 with the cutoff and empirical tail bound used."""

    g2: complex
    g3: complex
    cutoff: int
    tail_bound: float

    def discriminant(self) -> complex:
        return self.g2 ** 3 - 27 * self.g3 ** 2

    def cubic_residual(self, p, pp):
        """|pp^2 - 4 p^3 + g2 p + g3|: how far (p : pp : 1) is off the cubic."""
        return abs(pp ** 2 - 4 * p ** 3 + self.g2 * p + self.g3)


# ---------------------------------------------------------------------------
# direct lattice summation (oracle route)
# ---------------------------------------------------------------------------

def _lattice_points(L: Lattice, N: int) -> np.ndarray:
    rng = np.arange(-N, N + 1)
    m, n = np.meshgrid(rng, rng, indexing="ij")
    w = m + n * L.tau
    return w[(m != 0) | (n != 0)]


def eisenstein_lattice(L: Lattice, N: int = DEFAULT_CUTOFF) -> EisensteinPair:
    """g2 = 60 sum' w^-4 and g3 = 140 sum' w^-6 over max(|m|,|n|) <= N.

    The reported tail bound is the difference against the N//2 truncation.
    """
    if N < 4:
        raise ValueError("cutoff too small")

    def sums(cut):
        w = _lattice_points(L, cut)
        return 60.0 * np.sum(w ** -4.0), 140.0 * np.sum(w ** -6.0)

    g2, g3 = sums(N)
    g2h, g3h = sums(N // 2)
    tail = max(abs(g2 - g2h), abs(g3 - g3h))
    return EisensteinPair(complex(g2), complex(g3), N, float(tail))


def wp_lattice(L: Lattice, z: complex, N: int = DEFAULT_CUTOFF) -> complex:
    """wp(z) = z^-2 + sum'[(z-w)^-2 - w^-2], symmetric square truncation.

    The +/-w pairing of the truncation cancels the odd error terms, so
    evenness holds to rounding at any cutoff.
    """
    _check_off_lattice(L, z)
    w = _lattice_points(L, N)
    return complex(1.0 / z ** 2 + np.sum((z - w) ** -2.0 - w ** -2.0))


def wp_prime_lattice(L: Lattice, z: complex, N: int = DEFAULT_CUTOFF) -> complex:
    """wp'(z) = -2 sum over the whole truncated lattice of (z-w)^-3."""
    _check_off_lattice(L, z)
    w = _lattice_points(L, N)
    return complex(-2.0 * (1.0 / z ** 3 + np.sum((z - w) ** -3.0)))


def _check_off_lattice(L: Lattice, z):
    if np.any(L.distance_to_lattice(z) <= POLE_GUARD):
        raise LatticePointError(f"z = {z} is within {POLE_GUARD} of a lattice point")


# ---------------------------------------------------------------------------
# nome-series evaluation (default route)
# ---------------------------------------------------------------------------

def _divisor_sigma(N: int, power: int) -> np.ndarray:
    sig = np.zeros(N + 1)
    for d in range(1, N + 1):
        sig[d::d] += float(d) ** power
    return sig


def eisenstein(L: Lattice, N: int = DEFAULT_CUTOFF) -> EisensteinPair:
    """Lattice invariants via the normalized Eisenstein q-expansions.

    g2 = (4 pi^4 / 3) (1 + 240 sum sigma_3(k) q^k) and
    g3 = (8 pi^6 / 27) (1 - 504 sum sigma_5(k) q^k); the error decays like
    |q|^N, far below rounding at the default cutoff.
    """
    if N < 4:
        raise ValueError("cutoff too small")

    def sums(cut):
        q = L.nome
        qp = q ** np.arange(1, cut + 1)
        s3 = _divisor_sigma(cut, 3)[1:]
        s5 = _divisor_sigma(cut, 5)[1:]
        g2 = (4.0 * math.pi ** 4 / 3.0) * (1.0 + 240.0 * np.sum(s3 * qp))
        g3 = (8.0 * math.pi ** 6 / 27.0) * (1.0 - 504.0 * np.sum(s5 * qp))
        return complex(g2), complex(g3)

    g2, g3 = sums(N)
    g2h, g3h = sums(max(4, N // 2))
    tail = max(abs(g2 - g2h), abs(g3 - g3h))
    return EisensteinPair(g2, g3, N, float(tail))


def wp(L: Lattice, z, N: int = DEFAULT_CUTOFF):
    """Weierstrass wp via its Fourier expansion in u = exp(2 pi i z).

    z is a number or an array of numbers (the result has its shape); it is
    reduced to the fundamental cell first, which makes periodicity exact;
    the n = 0 term is invariant under u -> 1/u, so evenness is exact as well.
    """
    _check_off_lattice(L, z)
    u = np.exp(2j * cmath.pi * np.atleast_1d(L.reduce(z)))
    q = L.nome
    s = 1.0 / 12.0 + u / (1 - u) ** 2
    for n in range(1, N + 1):
        qn = q ** n
        a, b = qn * u, qn / u
        s += a / (1 - a) ** 2 + b / (1 - b) ** 2 - 2 * qn / (1 - qn) ** 2
    s = (2j * cmath.pi) ** 2 * s
    return s if np.ndim(z) else complex(s[0])


def wp_prime(L: Lattice, z, N: int = DEFAULT_CUTOFF):
    """Derivative of wp, from the term-wise differentiated expansion."""
    _check_off_lattice(L, z)
    u = np.exp(2j * cmath.pi * np.atleast_1d(L.reduce(z)))
    q = L.nome
    s = u * (1 + u) / (1 - u) ** 3
    for n in range(1, N + 1):
        qn = q ** n
        a, b = qn * u, qn / u
        s += a * (1 + a) / (1 - a) ** 3 - b * (1 + b) / (1 - b) ** 3
    s = (2j * cmath.pi) ** 3 * s
    return s if np.ndim(z) else complex(s[0])


# ---------------------------------------------------------------------------
# derived checks and the torus embedding
# ---------------------------------------------------------------------------

def ode_residual(L: Lattice, z: complex, N: int = DEFAULT_CUTOFF) -> float:
    """|wp'(z)^2 - 4 wp(z)^3 + g2 wp(z) + g3| at cutoff N, for a number or an array z."""
    return eisenstein(L, N).cubic_residual(wp(L, z, N), wp_prime(L, z, N))


def ode_residual_lattice(L: Lattice, z: complex, N: int = DEFAULT_CUTOFF) -> float:
    """Same residual evaluated along the direct lattice-sum route."""
    return eisenstein_lattice(L, N).cubic_residual(wp_lattice(L, z, N),
                                                   wp_prime_lattice(L, z, N))


def embed(L: Lattice, z: complex, N: int = DEFAULT_CUTOFF) -> ProjPoint:
    """Map [z] to (wp(z) : wp'(z) : 1), with the lattice class [0] at (0:1:0).

    The image lies on X1^2 X2 - 4 X0^3 + g2 X0 X2^2 + g3 X2^3 = 0 within a
    tolerance governed by ode_residual.
    """
    if L.distance_to_lattice(z) <= POLE_GUARD:
        return ProjPoint((0.0, 1.0, 0.0))
    return ProjPoint((wp(L, z, N), wp_prime(L, z, N), 1.0))
