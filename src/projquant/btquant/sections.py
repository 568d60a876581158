"""Holomorphic section spaces of the level-m bundle over P^1.

In the chart, H^0 is spanned by the monomials z^k, k = 0..m, whose Gram
matrix is diagonal with Beta-integral entries 2*pi*k!(m-k)!/(m+1)!; so
s_k = c_k z^k with c_k = sqrt((m+1)/(2*pi) * C(m,k)) is orthonormal in
closed form.  At a node r e^(i theta) the weighted s_k is P[r, k] e^(i k theta)
with the radial profile P[r, k] = c_k r^k (1+r^2)^(-m/2).

A product of two profiles, P[r, j] P[r, k] = c_j c_k r^s (1+r^2)^(-m), depends
on j and k only through s = j + k and the constants, so the basis stores the
radial table r^s (1+r^2)^(-m) for s = 0..2m, each row divided by its maximum
over the radii, and the matching scales c_j c_k max_r r^(j+k) (1+r^2)^(-m).
Everything is evaluated in log space so that nothing overflows at large m.

The basis also says where each Toeplitz matrix entry reads its radial
product (5.3 MB at m = 1024, against the 16.8 MB of the other fields).

level_basis is where every operator finds its basis: the level-m basis on a
rule is built with read-only arrays and kept, with its rule, until a basis
of another level or on another rule is asked for.  It is the one thing a
process keeps between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .quadrature import (InsufficientResolutionError, QuadratureRule, build_quadrature,
                         default_counts, read_only)

#: Normalized radial-table entries below this are stored as zero.  Dropping
#: them moves a matrix entry by at most 1e-250 * (m+1) * max|g|: the scale of
#: an entry is max_r P[r, j] P[r, k] <= (m+1)/(2 pi) (P[r, k]^2 is (m+1)/(2 pi)
#: times a binomial probability), and the weighted angular modes of g sum to at
#: most 2 pi max|g| over the radii.  The operator's norm is at most max|g|, so
#: that is some 1e-234 * (m+1) of its rounding unit, far below anything
#: rounding can see.  The entries it zeroes would otherwise reach the matrix
#: product as subnormals, which run it several times slower.
TABLE_FLUSH = 1e-250


@dataclass(frozen=True)
class SectionBasis:
    """Orthonormal basis data of H^0(P^1, L^m) on a product quadrature rule."""

    m: int
    quad: QuadratureRule
    radial_weights: np.ndarray  # (R,) weight of each radius, summed over angles
    radial_table: np.ndarray    # (2m+1, R) r_i^s (1+r_i^2)^(-m) / max_i, flushed
    pair_scale: np.ndarray      # (m+1, m+1) c_j c_k max_i r_i^(j+k) (1+r_i^2)^(-m)
    # radial products mu[s, e] = sum_i radial_table[s, i] M[i, c] of the weighted
    # modes M of a real FFT over the angles (c <= A/2; mode c > A/2 is
    # conj(mode A - c)); entry (j, k) reads the cell s = j + k, D = |k - j|
    columns: np.ndarray         # (2, m//2 + 1) c of D = 2e + parity, folded
    index: np.ndarray           # (m+1, m+1) int32 cell of each entry in flat mu
    conjugate: np.ndarray       # (m+1, m+1) bool: below the diagonal xor folded

    @classmethod
    def build(cls, m: int, quad: QuadratureRule | None = None) -> "SectionBasis":
        if m < 0:
            raise ValueError("level must be nonnegative")
        quad = quad if quad is not None else build_quadrature(max(m, 1))
        r = quad.radii
        k = np.arange(m + 1)
        # log C(m, k) as a cumulative sum of log((m-k+1)/k)
        log_binom = np.concatenate(([0.0], np.cumsum(np.log((m - k[1:] + 1) / k[1:]))))
        log_c = 0.5 * (np.log((m + 1) / (2.0 * pi)) + log_binom)
        table = np.multiply.outer(np.arange(2 * m + 1), np.log(r))
        table -= m * np.log1p(r * r)
        row_max = table.max(axis=1)
        table -= row_max[:, None]
        np.exp(table, out=table)
        table[table < TABLE_FLUSH] = 0.0
        scale = np.add.outer(log_c, log_c)
        scale += sliding_window_view(row_max, m + 1)
        np.exp(scale, out=scale)
        if not np.all(np.isfinite(scale)):
            raise InsufficientResolutionError(
                f"level-{m} section kernel is not finite on this rule")
        angles, width = quad.angular_count, m // 2 + 1
        columns = (np.arange(2)[:, None] + 2 * np.arange(width)) % angles
        j = np.arange(m + 1, dtype=np.int32)
        d = np.abs(j - j[:, None])
        folded = k % angles > angles // 2
        return cls(m=m, quad=quad,
                   radial_weights=read_only(quad.weights.reshape(r.size, -1).sum(axis=1)),
                   radial_table=read_only(table), pair_scale=read_only(scale),
                   columns=read_only(np.minimum(columns, angles - columns)),
                   index=read_only((j[:, None] + j) * width + (d >> 1)),  # e = |D| // 2
                   conjugate=read_only((j[:, None] > j) ^ folded[d]))

    @property
    def dim(self) -> int:
        return self.m + 1


#: the basis level_basis returned last, if any
_last: SectionBasis | None = None


def level_basis(m: int, quad: QuadratureRule | None = None) -> SectionBasis:
    """The level-m basis on quad (default: build_quadrature(max(m, 1))).  The
    basis returned last is kept and returned again for level m on its rule:
    given as quad, or, with no quad, when the kept rule has the level's
    default counts.  So every operator at one level on one rule shares one
    SectionBasis.build."""
    global _last
    basis = _last  # read once, so the basis checked is the one returned
    if quad is None and basis is not None and (
            basis.quad.radial_count, basis.quad.angular_count) == default_counts(max(m, 1)):
        quad = basis.quad  # the rule build_quadrature(max(m, 1)) would build
    if basis is None or basis.m != m or basis.quad is not quad:
        _last = basis = None  # the old basis (and its rule, unless reused) goes first
        basis = _last = SectionBasis.build(m, quad)
    return basis
