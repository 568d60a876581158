"""Graded coordinate rings of hypersurfaces and complete intersections.

The ring K[X_0..X_n]/(f_1,..,f_s) is represented by the degrees of its
relations.  For a regular sequence the dimension of each graded piece comes
from Koszul inclusion-exclusion over subsets of relations, and the Krull
dimension is nvars - s, one more than the degree of the eventual Hilbert
polynomial.
Dimensions use exact integer arithmetic throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .poly import Polynomial, monomials_of_degree


@dataclass(frozen=True)
class GradedRingPresentation:
    """K[P^n] modulo relations of the given degrees (s = 0: the full ring).

    Only the degrees are kept: the dimensions depend on nothing else.
    Regularity of the sequence is the caller's assertion; it always holds
    for the principal case s <= 1 (any single nonzero relation is regular).
    """

    nvars: int
    relation_degrees: tuple = ()

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError(f"need at least 1 variable, got nvars = {self.nvars}")
        degs = tuple(int(d) for d in self.relation_degrees)
        if any(d <= 0 for d in degs):
            raise ValueError("relation degrees must be positive")
        if len(degs) > self.nvars:
            raise ValueError("more relations than variables cannot be a regular sequence")
        object.__setattr__(self, "relation_degrees", degs)

    @classmethod
    def hypersurface(cls, f: Polynomial) -> "GradedRingPresentation":
        if f.is_zero or not f.is_homogeneous():
            raise ValueError(f"relation {f} is not a nonzero homogeneous polynomial")
        return cls(f.nvars, (f.degree(),))


def hilbert_function(R: GradedRingPresentation, m: int) -> int:
    """dim of the degree-m graded piece of the quotient ring.

    Koszul inclusion-exclusion for a regular sequence of degrees d_1..d_s in
    n+1 variables: sum over subsets S of (-1)^|S| C(n + m - sum(d_i), n),
    binomials with negative upper entry vanishing.
    """
    if m < 0:
        return 0
    n = R.nvars - 1
    total = 0
    for k in range(len(R.relation_degrees) + 1):
        for subset in itertools.combinations(R.relation_degrees, k):
            top = n + m - sum(subset)
            if top >= n:
                total += (-1) ** k * comb(top, n)
    return total


def krull_dim(R: GradedRingPresentation) -> int:
    """Krull dimension of the graded ring, nvars - s for a regular sequence
    of s relations: Hilbert polynomial degree + 1."""
    return R.nvars - len(R.relation_degrees)


def variety_dim(R: GradedRingPresentation) -> int:
    """Dimension of the projective zero set: dim of the ring minus one, the
    degree of the Hilbert polynomial (-1 when it is eventually zero)."""
    return krull_dim(R) - 1


def graded_basis_hypersurface(f: Polynomial, m: int) -> list[tuple]:
    """Monomial basis of degree m of K[X_0..X_n]/(f), graded-lex descending.

    The basis consists of the degree-m monomials not divisible by the
    leading monomial of f: a single generator is its own Groebner basis,
    making this set exact (its cardinality equals the Hilbert function).
    """
    if f.is_zero:
        raise ValueError("relation must be nonzero")
    if not f.is_homogeneous():
        raise ValueError("relation must be homogeneous")
    lm = f.leading_monomial()
    return [mono for mono in monomials_of_degree(f.nvars, m)
            if not all(a <= b for a, b in zip(lm, mono))]
