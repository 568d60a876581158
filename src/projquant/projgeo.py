"""Projective and affine geometry over exact coordinates.

Varieties are given by homogeneous generator lists; singularity verdicts are
rank conditions on the Jacobi matrix, computed exactly by fraction-free
elimination.  Every decision is made in Q(i): a float coordinate or
coefficient is lifted exactly first (every float is a binary rational), so a
float point decides like its exact binary value, and one only near a variety
is not on it.  All verdicts are relative to the supplied presentation: the
toolkit does not certify that the generators generate the full vanishing
ideal.
"""

from __future__ import annotations

import cmath
import enum
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .gaussrat import GaussianRational, exact_rank, is_exact_scalar
from .poly import Polynomial


class PointNotOnVarietyError(ValueError):
    pass


class ProjPoint:
    """Point of P^n given by one homogeneous coordinate representative.

    Coordinates may be exact (int/Fraction/GaussianRational) or complex
    floats, as `gitquot` and `weierstrass.embed` build them; membership and
    rank lift a float coordinate to the exact value it stores.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("empty coordinate tuple")
        if all(c == 0 for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("ProjPoint is immutable")

    def __len__(self):
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(c) for c in self.coords)

    def to_complex(self) -> tuple:
        return tuple(map(complex, self.coords))

    def __repr__(self):
        return f"ProjPoint({format_point(self)})"


@dataclass(frozen=True)
class VarietyPresentation:
    """Zero set of finitely many homogeneous polynomials in P^n.

    Zero generators are accepted but dropped (with a warning) so they
    cannot distort rank or membership logic.
    """

    generators: tuple
    claimed_dim: int | None = None

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            if g.nvars != gens[0].nvars:
                raise ValueError("generators over different variable counts")
            if not g.is_zero and not g.is_homogeneous():
                raise ValueError(f"generator is not homogeneous: {g}")
        kept = tuple(g for g in gens if not g.is_zero)
        if len(kept) < len(gens):
            warnings.warn("zero generator dropped from variety presentation")
        if not kept:
            raise ValueError("all generators were zero")
        object.__setattr__(self, "generators", kept)

    @property
    def nvars(self) -> int:
        return self.generators[0].nvars

    @property
    def ambient_dim(self) -> int:
        """n for a variety sitting in P^n."""
        return self.nvars - 1


def _exactify(c):
    """c itself if exact, else the Gaussian rational a float (or complex) equals."""
    if is_exact_scalar(c):
        return c
    z = complex(c)
    return GaussianRational(Fraction(z.real), Fraction(z.imag))


def _vanishes(gens, coords) -> bool:
    """Whether every generator vanishes at the coordinates, lifted exactly; a
    nan or an infinite coordinate is on no variety."""
    if not all(is_exact_scalar(c) or cmath.isfinite(complex(c)) for c in coords):
        return False
    coords = tuple(map(_exactify, coords))
    return all(g.evaluate(coords) == 0 for g in gens)


def _jacobian_rank(gens, coords) -> int:
    """Rank of the Jacobi matrix of the generators at the exact coordinates."""
    return exact_rank([[g.partial(i).evaluate(coords) for i in range(len(coords))]
                       for g in gens])


def is_on_variety(V: VarietyPresentation, p: ProjPoint) -> bool:
    """Whether every generator vanishes at p, exactly (float coordinates lifted)."""
    return _vanishes(V.generators, p.coords)


def jacobian(V: VarietyPresentation) -> tuple:
    """Rows of partial derivatives d f_l / d X_i, one per generator."""
    return tuple(tuple(g.partial(i) for i in range(V.nvars)) for g in V.generators)


def rank_at(V: VarietyPresentation, p: ProjPoint) -> int:
    """Rank of the Jacobi matrix at a point of the variety."""
    if not is_on_variety(V, p):
        raise PointNotOnVarietyError(f"{format_point(p)} is not on the variety")
    return _jacobian_rank(V.generators, tuple(map(_exactify, p.coords)))


def is_singular_point(V: VarietyPresentation, p: ProjPoint) -> bool:
    """Rank test: singular iff rank J(p) < n - r, r the presentation's
    claimed_dim; the verdict is relative to the given generators."""
    if V.claimed_dim is None:
        raise ValueError("the variety dimension is required for the singularity test")
    return rank_at(V, p) < V.ambient_dim - V.claimed_dim


def zariski_tangent_dim(gens, point) -> int:
    """Dimension of the Zariski tangent space of an affine zero set.

    gens are polynomials in n affine variables; the result is
    n - rank(Jacobian at the point), the dimension of (M/M^2)*.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    if len(point) != gens[0].nvars:
        raise ValueError("point dimension mismatch")
    if not _vanishes(gens, point):
        raise PointNotOnVarietyError("point is not a common zero")
    return len(point) - _jacobian_rank(gens, tuple(map(_exactify, point)))


class CubicClass(enum.Enum):
    SMOOTH = "smooth"
    NODAL = "nodal"
    CUSPIDAL = "cuspidal"


def discriminant(g2, g3):
    """g2^3 - 27*g3^2 in Q(i), float inputs lifted exactly."""
    g2, g3 = _exactify(g2), _exactify(g3)
    return g2 * g2 * g2 - 27 * g3 * g3


def cubic_classify(g2, g3) -> CubicClass:
    """Classify Y^2 Z = 4 X^3 - g2 X Z^2 - g3 Z^3 by its singularity type.

    Smooth iff the discriminant g2^3 - 27 g3^2 is nonzero.  In the
    degenerate case the right-hand cubic 4x^3 - g2 x - g3 has a repeated
    root; the root is triple exactly when g2 = g3 = 0, which separates the
    cusp (one tangent direction) from the node (two).  Float inputs are
    lifted exactly, so 3.0, 1.0 + 1e-15 is smooth.
    """
    if discriminant(g2, g3) != 0:
        return CubicClass.SMOOTH
    if g2 == 0 and g3 == 0:
        return CubicClass.CUSPIDAL
    return CubicClass.NODAL


def weierstrass_cubic(g2, g3) -> Polynomial:
    """The plane cubic X1^2 X2 - 4 X0^3 + g2 X0 X2^2 + g3 X2^3 in P^2.

    Floating g2, g3 are lifted exactly (every float is a binary rational),
    so the polynomial layer stays exact-coefficient.
    """
    return Polynomial(3, {
        (0, 2, 1): 1,
        (3, 0, 0): -4,
        (1, 0, 2): _exactify(g2),
        (0, 0, 3): _exactify(g3),
    })


def weierstrass_cubic_singular_points(g2, g3):
    """Exact singular locus of the cubic above, for exact g2, g3.

    Solving the partial-derivative system by hand: no solutions on Z = 0;
    on Z = 1 a singular point forces Y = 0 and either g2 = g3 = 0 with the
    point (0:0:1), or g2^3 = 27 g3^2 with the point (-3 g3 / (2 g2) : 0 : 1).
    """
    if not (is_exact_scalar(g2) and is_exact_scalar(g3)):
        raise TypeError("exact g2, g3 required")
    d = discriminant(g2, g3)
    if d != 0:
        return []
    if g2 == 0:
        return [ProjPoint((Fraction(0), Fraction(0), Fraction(1)))]
    return [ProjPoint((Fraction(-3, 2) * g3 / g2, Fraction(0), Fraction(1)))]


def veronese_square(p: ProjPoint) -> ProjPoint:
    """Degree-2 Veronese image of P^1 in P^2: (a:b) -> (a^2 : ab : b^2)."""
    if len(p) != 2:
        raise ValueError("veronese_square expects a point of P^1")
    a, b = p.coords
    return ProjPoint((a * a, a * b, b * b))


# ---------------------------------------------------------------------------
# text and JSON interfaces
# ---------------------------------------------------------------------------

def format_point(p: ProjPoint) -> str:
    return "(" + " : ".join(_format_coord(c) for c in p.coords) + ")"


def _format_coord(c):
    if is_exact_scalar(c):
        return str(c)
    z = complex(c)
    if z.imag == 0:
        return repr(z.real)
    return repr(z)
