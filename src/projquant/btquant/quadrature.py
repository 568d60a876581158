"""Product quadrature for Fubini-Study integrals on the z-chart of P^1.

The area form is omega = 2 (1+|z|^2)^-2 dx dy, total mass 2*pi.  In the
compactified radial variable t = (r^2-1)/(r^2+1) it becomes (1/2) dt dtheta,
so a Gauss-Legendre rule in t crossed with a uniform angular rule integrates
every z^j zbar^k (1+|z|^2)^(-m-2) appearing in section inner products
exactly: the angular factor is a pure harmonic and the radial factor is a
polynomial in t of degree at most m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOTAL_MASS = 2.0 * np.pi

#: default rule sizes for level cap m_max; generous margins keep every
#: integrand of the shipped function family inside the exactness budget
def default_radial(m_max: int) -> int:
    return m_max + 6


def default_angular(m_max: int) -> int:
    return 2 * m_max + 8


class InsufficientResolutionError(RuntimeError):
    pass


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: numpy's leggauss nodes,
    with the weights 2 / ((1-t^2) P_n'(t)^2) recomputed by recurrence there.
    leggauss's own weights drift by up to 2e-9 relative at n = 1030, which
    the closed-form normalization of the section basis would expose."""
    t, _ = np.polynomial.legendre.leggauss(n)
    p_prev, p = np.ones_like(t), t
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
    one_minus_t2 = (1.0 - t) * (1.0 + t)
    dp = n * (p_prev - t * p) / one_minus_t2
    return t, 2.0 / (one_minus_t2 * dp * dp)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes z and positive weights w with sum(w) = 2*pi to rounding."""

    nodes: np.ndarray
    weights: np.ndarray
    radial_count: int
    angular_count: int
    m_max: int

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values: np.ndarray) -> complex:
        """Integral of a function given by its values at the nodes."""
        return complex(np.sum(self.weights * values))

    def is_exact_for(self, m: int, extra_degree: int = 4) -> bool:
        """Whether level-m matrix elements (plus the given slack in both the
        radial polynomial degree and the angular harmonic index) are inside
        the rule's exactness range."""
        radial_ok = 2 * self.radial_count - 1 >= m + extra_degree
        angular_ok = self.angular_count >= 2 * m + extra_degree
        return radial_ok and angular_ok


def build_quadrature(m_max: int, radial: int | None = None,
                     angular: int | None = None) -> QuadratureRule:
    """Build the product rule for levels up to m_max.

    Explicit radial/angular counts override the defaults; callers doing so
    own the exactness budget (deliberately coarse rules are how the
    refinement diagnostics work).  The total-mass identity is checked
    unconditionally.
    """
    if m_max < 1:
        raise ValueError("m_max must be positive")
    R = default_radial(m_max) if radial is None else int(radial)
    A = default_angular(m_max) if angular is None else int(angular)
    if R < 1 or A < 2:
        raise ValueError("rule too small")
    t, v = gauss_legendre(R)
    r = np.sqrt((1.0 + t) / (1.0 - t))
    theta = 2.0 * np.pi * np.arange(A) / A
    z = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    w = np.repeat(np.pi * v / A, A)
    rule = QuadratureRule(nodes=z, weights=w, radial_count=R,
                          angular_count=A, m_max=m_max)
    if abs(rule.total_mass() - TOTAL_MASS) > 1e-10:
        raise InsufficientResolutionError(
            f"total mass {rule.total_mass()!r} misses 2*pi")
    return rule
