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
from functools import lru_cache

import numpy as np

TOTAL_MASS = 2.0 * np.pi
MEMO_SIZES = 32  # Gauss-Legendre rule sizes kept per process

#: default rule sizes for level cap m_max; generous margins keep every
#: integrand of the shipped function family inside the exactness budget
def default_radial(m_max: int) -> int:
    return m_max + 6


def default_angular(m_max: int) -> int:
    """The smallest 7-smooth count >= 2 m_max + 8, a fast FFT length."""
    a = 2 * m_max + 8
    while pow(210, a.bit_length(), a):  # a divides 210^k iff a is 7-smooth
        a += 1
    return a


class InsufficientResolutionError(RuntimeError):
    pass


@lru_cache(maxsize=MEMO_SIZES)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton steps
    on the three-term recurrence from Tricomi's asymptotic nodes (Hale &
    Townsend, SIAM J. Sci. Comput. 35, 2013) for the half t <= 0, mirrored.
    The unknown is u = 1 + t and the recurrence runs on S_j = P_j + P_(j-1):
    both keep their relative accuracy next to t = -1, where the weight is
    most sensitive to the node.  The weights 2 / ((1-t^2) P_n'^2) of the last
    pass are carried to first order along its step (below 1e-8 relative).
    Each size is built once per process and shared: the arrays are read-only.
    """
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    u = 1.0 - np.cos(theta) * (1 - (n - 1) / (8 * n ** 3)
                               - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4))
    u[n // 2:] = 1.0  # the middle node of an odd rule
    tmp = np.empty_like(u)
    for _ in range(8):  # three passes from Tricomi's nodes
        p, s = np.ones_like(u), u.copy()
        for j in range(2, n + 1):  # S_j = ((2j-1) u P_(j-1) - (j-1) S_(j-1)) / j
            np.subtract(s, p, out=p)
            np.multiply(u, p, out=tmp)
            tmp *= (2 * j - 1) / j
            s *= (1 - j) / j
            s += tmp
        p_n = s - p
        t, one_minus_t2 = u - 1.0, u * (2.0 - u)
        dp = n * (p - t * p_n) / one_minus_t2
        step = p_n / dp
        u -= step
        if np.max(np.abs(step) / one_minus_t2) <= 1e-8:
            break
    w = 2.0 / (one_minus_t2 * dp * dp) * (1.0 + 2.0 * t * step / one_minus_t2)
    t = np.concatenate((u - 1.0, 1.0 - u[:n // 2][::-1]))
    w = np.concatenate((w, w[:n // 2][::-1]))
    t.flags.writeable = w.flags.writeable = False
    return t, w


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes z and positive weights w with sum(w) = 2*pi to rounding."""

    nodes: np.ndarray
    weights: np.ndarray
    radial_count: int
    angular_count: int

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
    rule = QuadratureRule(nodes=z, weights=w, radial_count=R, angular_count=A)
    if abs(rule.total_mass() - TOTAL_MASS) > 1e-10:
        raise InsufficientResolutionError(
            f"total mass {rule.total_mass()!r} misses 2*pi")
    return rule
