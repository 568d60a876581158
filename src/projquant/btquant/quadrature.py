"""Product quadrature for Fubini-Study integrals on the z-chart of P^1.

The area form is omega = 2 (1+|z|^2)^-2 dx dy, total mass 2*pi.  In the
compactified radial variable t = (r^2-1)/(r^2+1) it becomes (1/2) dt dtheta,
so a Gauss-Legendre rule in t crossed with a uniform angular rule integrates
every z^j zbar^k (1+|z|^2)^(-m-2) appearing in section inner products
exactly: the angular factor is a pure harmonic and the radial factor is a
polynomial in t of degree at most m.

build_quadrature is a plain constructor and this module keeps nothing.  A
rule computes its node geometry (the radii and h1 = (1+|z|^2)^-1 at the
nodes) once, as read-only arrays; what a process keeps is the one section
basis sections.level_basis returned last, with its plan and its rule.  At
m = 1024 the default rule has 515 x 1029 nodes, and that is about 39 MB: 13 MB
of nodes and weights, 4 MB of h1, the 17 MB basis and its 5.3 MB plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOTAL_MASS = 2.0 * np.pi


def default_counts(m: int, degree: int = 4) -> tuple[int, int]:
    """The radial and angular counts of build_quadrature(m)'s default rule:
    R = ceil((m + degree + 1) / 2), the fewest radii that integrate the
    level-m matrix elements of a symbol of that degree in x1, x2, x3
    exactly, and A the smallest 7-smooth count >= m + degree + 1, the fewest
    angles that do, rounded up to a fast FFT length (see is_exact_for)."""
    a = n = m + degree + 1
    while pow(210, a.bit_length(), a):  # a divides 210^k iff a is 7-smooth
        a += 1
    return (n + 1) // 2, a


class InsufficientResolutionError(RuntimeError):
    pass


#: the first five positive zeros of the Bessel function J0
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911012,
             11.79153443901428, 14.93091770848779)


def _bessel_j0_zeros(count: int) -> np.ndarray:
    """The first count positive zeros of J0: the table, then McMahon's
    expansion in a = 1/(8b), b = (k - 1/4) pi (below 5e-13 relative)."""
    b = (np.arange(1, count + 1) - 0.25) * np.pi
    a = 1.0 / (8.0 * b)
    a2 = a * a
    j = b + a * (1 - a2 * (124 / 3 - a2 * (120928 / 15 - a2 * (
        401743168 / 105 - a2 * 1071187749376 / 315))))
    j[:5] = _J0_ZEROS[:count]
    return j


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton steps
    on the three-term recurrence for the half t <= 0, mirrored (Hale &
    Townsend, SIAM J. Sci. Comput. 35, 2013).  The start is Tricomi's
    asymptotic node in the interior and, where psi = j_(0,k) / (n + 1/2)
    < 0.8, Olver's Bessel-zero asymptotics t = -cos(psi + (psi cot psi - 1)
    / (8 psi (n + 1/2)^2)) next to t = -1.
    The unknown is u = 1 + t and the recurrence runs on S_j = P_j + P_(j-1):
    both keep their relative accuracy next to t = -1, where the weight is
    most sensitive to the node.  Passes stop once no step exceeds 1e-9 of
    1 - t^2: one pass for n >= 70, two for 4 <= n < 70, three for n = 2, 3.
    The weights 2 / ((1-t^2) P_n'^2) of the last pass are carried to first
    order along its step.
    """
    half, rho = (n + 1) // 2, n + 0.5
    theta = np.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    u = 1.0 - np.cos(theta) * (1 - (n - 1) / (8 * n ** 3)
                               - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4))
    psi = _bessel_j0_zeros(half) / rho
    near = psi < 0.8
    psi = psi[near]
    theta = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho ** 2)
    u[near] = 2.0 * np.sin(theta / 2) ** 2  # 1 - cos(theta) without cancellation
    u[n // 2:] = 1.0  # the middle node of an odd rule
    tmp = np.empty_like(u)
    for _ in range(8):
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
        if np.max(np.abs(step) / one_minus_t2) <= 1e-9:
            break
    w = 2.0 / (one_minus_t2 * dp * dp) * (1.0 + 2.0 * t * step / one_minus_t2)
    t = np.concatenate((u - 1.0, 1.0 - u[:n // 2][::-1]))
    w = np.concatenate((w, w[:n // 2][::-1]))
    return t, w


def bundle_weight(z) -> np.ndarray:
    """h1(z) = (1 + |z|^2)^-1, the metric weight of the degree-1 bundle, in
    one array of z's shape; bit for bit 1 / (1 + |z|^2)."""
    h = np.abs(z, out=np.empty(np.shape(z)))
    np.square(h, out=h)
    h += 1.0
    return np.reciprocal(h, out=h)


def read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes z and positive weights w with sum(w) = 2*pi to rounding.  The
    nodes run over the angles fastest: node i * A + j is r_i e^(2 pi i j / A)."""

    nodes: np.ndarray
    weights: np.ndarray
    radial_count: int
    angular_count: int

    @cached_property
    def radii(self) -> np.ndarray:
        """(R,) the radius r_i of each ring of nodes, read-only."""
        return read_only(np.abs(self.nodes[::self.angular_count]))

    @cached_property
    def h(self) -> np.ndarray:
        """h1 = (1+|z|^2)^-1 at every node, read-only."""
        return read_only(bundle_weight(self.nodes))

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def is_exact_for(self, m: int, extra_degree: int = 4) -> bool:
        """Whether the rule integrates the level-m matrix elements of a symbol
        of degree extra_degree in x1, x2, x3 exactly.  The radial factor is a
        polynomial of degree m + d in t, exact for default_counts' R (2R - 1
        >= m + d); the angular factor is e^(i(k-j)theta) times the symbol's
        modes, of index at most m + d, exact when A >= m + d + 1."""
        radial, _ = default_counts(m, extra_degree)
        return self.radial_count >= radial and self.angular_count > m + extra_degree


def build_quadrature(m_max: int, radial: int | None = None,
                     angular: int | None = None) -> QuadratureRule:
    """The product rule for levels up to m_max.

    The default counts, default_counts(m_max), are exact at every level
    <= m_max for symbols of degree <= 4 in x1, x2, x3: the family symbols
    and the products, Dirac brackets and Tuynman residuals of them that the
    CLI forms.  For a symbol of higher degree, or not a polynomial, pass
    explicit radial/angular counts and check is_exact_for (deliberately
    coarse rules are how the refinement diagnostics work).  The total-mass
    identity is checked unconditionally; each call builds a new rule, with
    read-only nodes and weights.
    """
    if m_max < 1:
        raise ValueError("m_max must be positive")
    R, A = default_counts(m_max)
    R = R if radial is None else int(radial)
    A = A if angular is None else int(angular)
    if R < 1 or A < 2:
        raise ValueError("rule too small")
    t, v = gauss_legendre(R)
    r = np.sqrt((1.0 + t) / (1.0 - t))
    theta = 2.0 * np.pi * np.arange(A) / A
    z = np.empty(R * A, dtype=complex)
    np.multiply(r[:, None], np.exp(1j * theta)[None, :], out=z.reshape(R, A))
    w = np.repeat(np.pi * v / A, A)
    rule = QuadratureRule(nodes=read_only(z), weights=read_only(w),
                          radial_count=R, angular_count=A)
    if abs(rule.total_mass() - TOTAL_MASS) > 1e-10:
        raise InsufficientResolutionError(
            f"total mass {rule.total_mass()!r} misses 2*pi")
    return rule
