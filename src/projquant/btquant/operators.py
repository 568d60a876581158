"""Quantization operators on the section spaces: multiplication-and-project
(Toeplitz), the covariant-derivative operator of geometric quantization and
the operator norm.

A level is given by m and its rule quad alone (default: the level's own
build_quadrature(m)); every routine here finds its basis through
sections.level_basis, which keeps the last basis it built and its rule:
successive operators at one level pay for assembly alone.  _assemble takes
one real FFT over the angles per radius, one real matrix product per parity
of k - j >= 0 (about 4 R (m+1)^2 flops for R radii, 2.2 GFLOP at m = 1024,
R = 515), one gather of the cells the basis lists and one product with the
pair scales.  The matrix of a real symbol is Hermitian by construction and
flagged so; op_norm then takes eigvalsh, not an SVD.  A complex symbol is
two real assemblies, T(Re) + i T(Im).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    sum as the dense pairing, regrouped.  Real values have M_(-D) =
    conj(M_D): a real FFT gives the modes D >= 0, one real matrix product per
    parity of D and s gives their mu, and the basis says which cell each entry
    reads, mu_(-D) = conj(mu_D) below the diagonal, so with pair_scale
    symmetric the matrix is exactly Hermitian.  Complex values are split.
    """
    if np.iscomplexobj(values):  # T(Re) + i T(Im)
        return _assemble(b, np.real(values)) + 1j * _assemble(b, np.imag(values))
    modes = np.fft.ihfft(np.reshape(values, (b.quad.radial_count, b.quad.angular_count)), axis=1)
    modes *= b.radial_weights[:, None]
    mu = np.empty((b.radial_table.shape[0], b.columns.shape[1]), dtype=complex)
    for p, columns in enumerate(b.columns):
        # the complex modes as (re, im) column pairs: one real product
        np.matmul(b.radial_table[p::2], modes.take(columns, axis=1).view(float),
                  out=mu[p::2].view(float))
    out = mu.take(b.index)
    np.conjugate(out, out=out, where=b.conjugate)
    out *= b.pair_scale
    return out


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
    b = level_basis(m, quad)
    mat = _covariant_part(b, f)
    mat += 1j * _assemble(b, f(b.quad.nodes))
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
    if m < 1:
        raise ValueError("geometric quantization needs level m >= 1")
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
    evaluated.  With X_f the field for m*omega and chart.py's divergence-form
    Laplacian the identity is exact on the sphere; the residual measures
    quadrature and rounding error only, not decreasing with m past that floor.
    """
    b = level_basis(m, quad)
    mat = _covariant_part(b, f)
    mat += (0.5j / m) * _assemble(b, f.laplacian_values(b.quad.nodes))
    return op_norm(mat)
