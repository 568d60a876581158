"""Independent reference routes that the tests check the program against.
No command or library call of projquant reaches them.

* The literal lattice sums of the Weierstrass invariants g2, g3 and of wp,
  wp' over the symmetric square truncation max(|m|, |n|) <= N.  They
  converge like O(1/N^2); the program's nome route agrees with them within
  their own tail.
* The sampled zero level of a circle action's moment map, ||mu(x)|| <= tol.
* The array passes that gitquot ran before it went to one scalar pass per
  point: the moment map and the one-parameter limits of every row of an
  array at once.
* Semistability in Fractions: every term of every invariant multiplied out
  at a point's exact binary value, with no shortcut for a one-term
  invariant.
* The dimension of a circle action's quotient as the growth degree of the
  number of invariant monomials per degree.
* Float membership and float rank: a scaled vanishing test and singular
  values counted against a size bound, for points that are only near a
  variety, such as the torus embedding's, and for the orbit dimension.
"""

import math
from fractions import Fraction

import numpy as np

from projquant.gitquot import InvariantSet, LinearAction, _coords
from projquant.weierstrass import POLE_GUARD, EisensteinPair, Lattice, LatticePointError

#: default truncation N of the lattice sums
DEFAULT_CUTOFF = 60

#: singular values below this fraction of the entries' size bound count as zero
FLOAT_RANK_RTOL = 1e-9


def _check_off_lattice(L: Lattice, z: complex):
    if L.distance_to_lattice(z) <= POLE_GUARD:
        raise LatticePointError(f"z = {z} is within {POLE_GUARD} of a lattice point")


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


def ode_residual_lattice(L: Lattice, z: complex, N: int = DEFAULT_CUTOFF) -> float:
    """|wp'^2 - 4 wp^3 + g2 wp + g3| along the lattice sums."""
    return eisenstein_lattice(L, N).cubic_residual(wp_lattice(L, z, N),
                                                   wp_prime_lattice(L, z, N))


def zero_level(action: LinearAction, points, tol: float) -> list:
    """The sampled zero level of the moment map: ||mu(x)|| <= tol."""
    points = list(points)
    V = np.array([_coords(p) for p in points]).reshape(len(points), action.n + 1)
    mu = np.linalg.norm(moment_rows(action, V), axis=1)
    return [p for p, r in zip(points, mu) if r <= tol]


def moment_rows(action: LinearAction, V: np.ndarray) -> np.ndarray:
    """The moment map of each row v of V, shape (rows, 1):
    Im(sum conj(v_j) (i w_j v_j)) / (2 pi |v|^2), from the generator
    i*diag(w) as a complex vector."""
    gen = np.array([1j * w for w in action.weights], dtype=complex)
    num = np.add.reduce(V.conj() * (gen * V), axis=-1)
    nrm2 = np.add.reduce(V.real * V.real + V.imag * V.imag, axis=1)
    return (num.imag / (2.0 * math.pi * nrm2))[:, None]


def semistable_rows(inv: InvariantSet, V: np.ndarray) -> list:
    """Whether some invariant is nonzero at each row v of V, exactly: each
    coordinate and coefficient as a pair of Fractions (real, imaginary), and
    each term of each invariant the product of its coefficient and one
    factor per unit of each exponent, the terms summed as pairs."""
    def times(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def value(F, x):
        re = im = Fraction(0)
        for m, c in F.iter_terms():
            t = (Fraction(c.real), Fraction(c.imag))
            for k, e in enumerate(m):
                for _ in range(e):
                    t = times(t, x[k])
            re, im = re + t[0], im + t[1]
        return re, im

    rows = []
    for v in V.tolist():
        x = [(Fraction(complex(c).real), Fraction(complex(c).imag)) for c in v]
        rows.append(any(value(F, x) != (0, 0) for F in inv.polys))
    return rows


def limit_rows(weights, V: np.ndarray):
    """The t -> 0 and t -> infinity limits of each row of V: the coordinates
    at the least and at the greatest weight on its support survive, the
    rest vanish."""
    w = np.array(weights, dtype=float)
    w_live = np.where(V != 0, w, np.nan)
    return tuple(np.where(w == ext[:, None], V, 0.0)
                 for ext in (np.fmin.reduce(w_live, axis=1), np.fmax.reduce(w_live, axis=1)))


def invariant_monomial_counts(weights, D: int) -> list:
    """h(d) for d = 0..D: the number of monomials X^a of degree d with
    a . w = 0, from the generating function prod_k 1 / (1 - t s^(w_k)): a
    table over (degree, weight), each coordinate's factor applied as
    T[d, s] += T[d - 1, s - w_k] in increasing d."""
    lo, hi = D * min(0, *weights), D * max(0, *weights)
    T = np.zeros((D + 1, hi - lo + 1), dtype=np.int64)
    T[0, -lo] = 1
    for w in weights:
        for d in range(1, D + 1):
            if w >= 0:
                T[d, w:] += T[d - 1, :T.shape[1] - w]
            else:
                T[d, :w] += T[d - 1, -w:]
    return T[:, -lo].tolist()


def invariant_growth_degree(weights, D: int = 80) -> float:
    """log2(C(2D) / C(D)) - 1 for C(D) = h(0) + ... + h(D).  The invariant
    monomials span the invariant ring, so h is its Hilbert function, a
    quasi-polynomial whose degree is the dimension of the quotient Proj;
    C(D) = c D^(dim + 1) (1 + O(1 / D)), so this tends to that dimension."""
    h = invariant_monomial_counts(weights, 2 * D)
    return math.log2(sum(h) / sum(h[:D + 1])) - 1


def on_variety_within(V, p, tol: float) -> bool:
    """Float counterpart of projgeo.is_on_variety: |g(p)| <= tol ||p||^deg(g)
    for every generator g, at p's coordinates as complex numbers, so the
    verdict does not depend on the representative's scale."""
    x = [complex(c) for c in p.coords]
    size = float(np.linalg.norm(x))
    return all(abs(g.evaluate(x)) <= tol * size ** g.degree() for g in V.generators)


def float_rank(values, scale: float) -> int:
    """Float counterpart of gitquot.orbit_dim's rank: the singular values of
    a matrix whose entries are sums of terms at most scale in size, counted
    above FLOAT_RANK_RTOL * scale.  Rounding leaves entries of size
    eps * scale where the exact value is zero, which a threshold relative
    to the largest singular value would count."""
    a = np.array(values, dtype=complex)
    if a.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > FLOAT_RANK_RTOL * scale))


def float_jacobian_rank(V, p) -> int:
    """Float counterpart of projgeo.rank_at, for a point near the variety:
    the Jacobi matrix at p's complex coordinates, its singular values
    counted against deg(g) sum |c| ||p||^(deg(g) - 1), a bound on every
    partial dg/dX_i at a point of that norm."""
    x = [complex(c) for c in p.coords]
    norm = float(np.linalg.norm(x))
    bound = max(g.degree() * sum(abs(complex(c)) for c in g.terms.values())
                * norm ** (g.degree() - 1) for g in V.generators)
    return float_rank([[g.partial(i).evaluate(x) for i in range(len(x))]
                       for g in V.generators], bound)
