"""Holomorphic section spaces of the level-m bundle over P^1.

In the chart, H^0 is spanned by the monomials z^k, k = 0..m, whose Gram
matrix is diagonal with Beta-integral entries 2*pi*k!(m-k)!/(m+1)!; so
s_k = c_k z^k with c_k = sqrt((m+1)/(2*pi) * C(m,k)) is orthonormal in
closed form.  At a node r e^(i theta) the weighted s_k is P[r, k] e^(i k theta)
with the radial profile P[r, k] = c_k r^k (1+r^2)^(-m/2), evaluated in log
space so that nothing overflows at large m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, pi

import numpy as np

from .quadrature import InsufficientResolutionError, QuadratureRule, build_quadrature


def gram_entry_closed_form(j: int, k: int, m: int) -> float:
    """<z^j, z^k> at level m: zero off the diagonal, Beta integral on it."""
    if j != k:
        return 0.0
    return 2.0 * pi * factorial(k) * factorial(m - k) / factorial(m + 1)


@dataclass(frozen=True)
class SectionBasis:
    """Orthonormal basis data of H^0(P^1, L^m) on a product quadrature rule."""

    m: int
    quad: QuadratureRule
    radial_weights: np.ndarray  # (R,) weight of each radius, summed over angles
    profiles: np.ndarray        # (R, m+1) P[i, k] = c_k r_i^k (1+r_i^2)^(-m/2)

    @classmethod
    def build(cls, m: int, quad: QuadratureRule | None = None) -> "SectionBasis":
        if m < 0:
            raise ValueError("level must be nonnegative")
        quad = quad if quad is not None else build_quadrature(max(m, 1))
        shape = (quad.radial_count, quad.angular_count)
        r = np.abs(quad.nodes.reshape(shape)[:, 0])
        k = np.arange(m + 1)
        # log C(m, k) as a cumulative sum of log((m-k+1)/k)
        log_binom = np.concatenate(([0.0], np.cumsum(np.log((m - k[1:] + 1) / k[1:]))))
        log_c = 0.5 * (np.log((m + 1) / (2.0 * pi)) + log_binom)
        log_p = (log_c[None, :] + k[None, :] * np.log(r)[:, None]
                 - 0.5 * m * np.log1p(r * r)[:, None])
        profiles = np.exp(log_p)
        if not np.all(np.isfinite(profiles)):
            raise InsufficientResolutionError(
                f"level-{m} section profiles are not finite on this rule")
        return cls(m=m, quad=quad,
                   radial_weights=quad.weights.reshape(shape).sum(axis=1),
                   profiles=profiles)

    @property
    def dim(self) -> int:
        return self.m + 1
