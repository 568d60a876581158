"""Quantization operators on the section spaces: multiplication-and-project
(Toeplitz), the covariant-derivative operator of geometric quantization and
the operator norm.

Matrices are assembled in the closed-form orthonormal basis of sections.py
with one angular FFT per radius and, for each parity of k - j, one real
matrix product of the basis's radial table with the angular modes.  For R
radii, A angles and n = m + 1 that is an R x A FFT plus about 8 R n^2 flops
at BLAS-3 speed (4.3 GFLOP at m = 1024, R = 515, half of them for (s, D)
pairs that fall outside the matrix).  A real symbol (node values of a real
dtype) needs only the modes k - j >= 0: a real R x A FFT and about 4 R n^2
flops (2.2 GFLOP at m = 1024), the rest by conjugation, so its matrix is
Hermitian by construction and flagged so; op_norm then takes eigvalsh, not
an SVD.  Memory is O(R A + n^2): the basis holds the (2m+1) x R table,
8.4 MB at m = 1024, and the n x n scales.

A level is given by m and its rule quad alone (default: the level's own
build_quadrature(m)); every routine here finds its basis through
sections.level_basis, which keeps the last basis it built and its rule:
successive operators at one level pay for assembly alone.

The level-m geometric-quantization operator uses the Hamiltonian field of f
taken with respect to m*omega (the symplectic form whose prequantum bundle
the level-m power is); with the divergence-form Laplacian of chart.py this
makes the identity Q_f = i T_{f - Delta f / 2m} hold to quadrature accuracy,
which the regression tests pin at build-determined tolerances.  Q_f is
assembled as i T_f + D_f, D_f the projected covariant derivative, and the
Tuynman residual is formed from the terms that differ, D_f + (i/2m) T_{Delta f}:
the i T_f of both sides is never assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .chart import SmoothFunction
from .quadrature import QuadratureRule
from .sections import SectionBasis, level_basis


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix of an endomorphism of H^0, in the orthonormal
    section basis.  hermitian marks a matrix that is Hermitian by
    construction (the Toeplitz operator of real node values, and sums and
    real multiples of such); it is never inferred from the entries."""

    m: int
    mat: np.ndarray
    hermitian: bool = False

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return OperatorMatrix(self.m, self.mat @ other.mat)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return OperatorMatrix(self.m, self.mat + other.mat, self.hermitian and other.hermitian)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        return OperatorMatrix(self.m, self.mat - other.mat, self.hermitian and other.hermitian)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.m, self.mat * scalar, self.hermitian and np.isrealobj(scalar))

    __rmul__ = __mul__

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.mat - self.mat.conj().T)))

    def _check(self, other):
        if self.m != other.m:
            raise ValueError("operators at different levels")


def _assemble(b: SectionBasis, values: np.ndarray) -> np.ndarray:
    """Matrix <s_j, g s_k> of the function with the given node values.

    The rule is a product of radii and equally spaced angles, so the angular
    sum of g against e^(i (k-j) theta) is one inverse FFT per radius: the
    weighted mode M_D(r_i) of D = k - j.  The radial sum pairs it with
    P[i, j] P[i, k], which the basis factors as pair_scale[j, k] times
    radial_table[s, i] with s = j + k.  So entry (j, k) is pair_scale[j, k]
    mu_D(s), mu_D(s) = sum_i radial_table[s, i] M_D(r_i): the same quadrature
    sum as the dense pairing, regrouped.  D and s have the same parity, and
    one real matrix product per parity gives mu for all of its (s, D).

    Real values (a real dtype) have M_(-D) = conj(M_D), so a real-input FFT
    gives the modes and the product runs over D >= 0 only; mu_(-D) = conj(mu_D)
    fills the rest, and since pair_scale is symmetric the matrix is exactly
    Hermitian.
    """
    m, n = b.m, b.dim
    R, A = b.quad.radial_count, b.quad.angular_count
    real = np.isrealobj(values)
    # for real values ihfft gives the inverse-FFT modes 0..A/2; mode k > A/2
    # is conj(mode A - k)
    modes = (np.fft.ihfft if real else np.fft.ifft)(np.reshape(values, (R, A)), axis=1)
    modes *= b.radial_weights[:, None]
    out = np.empty((n, n), dtype=complex)
    for p in (0, 1):
        D0 = -m + (m + p) % 2  # the k - j of parity p are D0, D0 + 2, ..., -D0
        D = np.arange(D0, m + 1, 2)
        table = b.radial_table[p::2]
        if real:  # mu_D for D >= 0 from one product, then mu_(-D) = conj(mu_D)
            neg = np.count_nonzero(D < 0)
            k = D[neg:] % A
            past = k > A // 2
            mu = np.empty((table.shape[0], D.size), dtype=complex)
            pos = mu[:, neg:]
            _radial_product(table, modes, np.where(past, A - k, k), out=pos)
            np.conjugate(pos, out=pos, where=past)
            np.conjugate(mu[:, :-1 - neg:-1], out=mu[:, :neg])
        else:
            mu = _radial_product(table, modes, D % A)
        # mu[t, e] = mu_D[e](2t + p).  Entry (2J + row, 2K + col) of the block
        # out[row::2, col::2] has s = 2(J + K) + row + col and
        # D = 2(K - J) + col - row, so it is element J (nD - 1) + K (nD + 1)
        # + start of mu: a strided view.
        nD, item = D.size, mu.itemsize
        for row in (0, 1):
            col = (row + p) % 2
            block = out[row::2, col::2]
            start = (row + col - p) // 2 * nD + (col - row - D0) // 2
            view = as_strided(mu.reshape(-1)[start:], block.shape,
                              ((nD - 1) * item, (nD + 1) * item), writeable=False)
            np.multiply(view, b.pair_scale[row::2, col::2], out=block)
    return out


def _radial_product(table: np.ndarray, modes: np.ndarray, columns: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """table @ modes[:, columns] (into out if given) as one real matrix
    product, the complex modes taken as (re, im) column pairs."""
    product = np.matmul(table, modes.take(columns, axis=1).view(float),
                        out=None if out is None else out.view(float))
    return product.view(complex)


def toeplitz(f: SmoothFunction, m: int, quad: QuadratureRule | None = None,
             basis: SectionBasis | None = None) -> OperatorMatrix:
    """Compress multiplication by f onto the holomorphic sections: the
    matrix <s_j, f s_k> in the orthonormal section basis (the given level-m
    basis, else the one on quad)."""
    if basis is not None and basis.m != m:
        raise ValueError(f"section basis of level {basis.m} given for level {m}")
    b = basis if basis is not None else level_basis(m, quad)
    return _toeplitz_of(b, f(b.quad.nodes))


def _toeplitz_of(b: SectionBasis, values: np.ndarray) -> OperatorMatrix:
    """The Toeplitz operator of the function with the given values at the
    nodes of b's rule; Hermitian-flagged when the values have a real dtype."""
    return OperatorMatrix(b.m, _assemble(b, values), np.isrealobj(values))


def geom_quant(f: SmoothFunction, m: int, quad: QuadratureRule | None = None) -> OperatorMatrix:
    """Project the prequantum operator -nabla_{X_f} + i f onto H^0: the
    matrix i T_f + D_f, D_f from _covariant_part."""
    if m < 1:
        raise ValueError("geometric quantization needs level m >= 1")
    b = level_basis(m, quad)
    mat = 1j * _assemble(b, f(b.quad.nodes))
    mat += _covariant_part(b, f)
    return OperatorMatrix(m, mat)


def _covariant_part(b: SectionBasis, f: SmoothFunction) -> np.ndarray:
    """D_f, the projection of -nabla_{X_f} onto the sections of b's level m.

    Applied to a holomorphic chart section s, the covariant derivative along
    X_f is X^z (s' + m s dlog h1) + X^zbar * 0; X_f is the Hamiltonian field
    of f for the level form m*omega, i.e. 1/m times the chart field.  With
    s_k' = sqrt(k (m-k+1)) s_{k-1} and dlog h1 = -zbar/(1+|z|^2), D_f is
    m <s_j, X^z zbar/(1+|z|^2) s_k> - sqrt(k (m-k+1)) <s_j, X^z s_{k-1}>.
    """
    m, quad = b.m, b.quad
    z, shape = quad.nodes, (quad.radial_count, quad.angular_count)
    factor = (1.0 + quad.radii ** 2)[:, None]  # 1 + |z|^2 on each radius
    xz_level = f.d_zbar(z).reshape(shape) * (-1j / m * factor ** 2)
    w = np.conj(z).reshape(shape)
    w *= xz_level
    w /= factor
    mat = m * _assemble(b, w)
    k = np.arange(1, m + 1)
    mat[:, 1:] -= _assemble(b, xz_level)[:, :-1] * np.sqrt(k * (m - k + 1))
    return mat


def op_norm(M: OperatorMatrix | np.ndarray) -> float:
    """Largest singular value (spectral norm).  For an operator flagged
    Hermitian that is the largest |eigenvalue|, from eigvalsh (which reads
    the lower triangle only); any other matrix takes a dense SVD."""
    a = M.mat if isinstance(M, OperatorMatrix) else np.asarray(M)
    if a.size == 0:
        return 0.0
    if isinstance(M, OperatorMatrix) and M.hermitian:
        w = np.linalg.eigvalsh(a)
        return float(max(-w[0], w[-1]))
    return float(np.linalg.norm(a, 2))


def tuynman_residual(f: SmoothFunction, m: int,
                     quad: QuadratureRule | None = None) -> float:
    """Operator-norm distance between Q_f and i T_{f - Delta f / 2m}.

    Q_f = i T_f + D_f, and both i T_f terms are the same assembly of the
    same node values, so the distance is taken as ||D_f + (i/2m) T_{Delta f}||
    (equal up to rounding): three assemblies, and f itself is never
    evaluated.  The identity is exact on the sphere; the residual measures
    quadrature and rounding error only and does not decrease with m past
    that floor.
    """
    b = level_basis(m, quad)
    mat = _covariant_part(b, f)
    mat += (0.5j / m) * _assemble(b, f.laplacian_values(b.quad.nodes))
    return op_norm(mat)
