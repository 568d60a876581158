"""Graded coordinate rings of hypersurfaces and complete intersections.

The ring K[X_0..X_n]/(f_1,..,f_s) is represented by the degrees of its
relations.  For a regular sequence the dimension of each graded piece comes
from Koszul inclusion-exclusion over subsets of relations, and the Krull
dimension is one more than the degree of the eventual Hilbert polynomial.
Dimensions use exact integer arithmetic throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .poly import Polynomial, mono_divides, monomials_of_degree


@dataclass(frozen=True)
class GradedRingPresentation:
    """K[P^n] modulo relations of the given degrees (s = 0: the full ring).

    When explicit relation polynomials are supplied their degrees must match
    relation_degrees; regularity of the sequence is the caller's assertion,
    validated here only for the principal case s <= 1 (any single nonzero
    relation is regular).
    """

    nvars: int
    relation_degrees: tuple = ()
    relations: tuple | None = None

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError(f"need at least 1 variable, got nvars = {self.nvars}")
        degs = tuple(int(d) for d in self.relation_degrees)
        if any(d <= 0 for d in degs):
            raise ValueError("relation degrees must be positive")
        if len(degs) > self.nvars:
            raise ValueError("more relations than variables cannot be a regular sequence")
        object.__setattr__(self, "relation_degrees", degs)
        if self.relations is not None:
            rels = tuple(self.relations)
            if len(rels) != len(degs):
                raise ValueError("relations and relation_degrees differ in length")
            for f, d in zip(rels, degs):
                if f.is_zero or not f.is_homogeneous() or f.degree() != d:
                    raise ValueError(f"relation {f} is not homogeneous of degree {d}")
                if f.nvars != self.nvars:
                    raise ValueError("relation over wrong variable count")
            object.__setattr__(self, "relations", rels)

    @classmethod
    def full_ring(cls, nvars: int) -> "GradedRingPresentation":
        return cls(nvars)

    @classmethod
    def hypersurface(cls, f: Polynomial) -> "GradedRingPresentation":
        return cls(f.nvars, (f.degree(),), (f,))


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


def hilbert_values(R: GradedRingPresentation, degrees) -> list[int]:
    return [hilbert_function(R, m) for m in degrees]


def hilbert_polynomial_degree(R: GradedRingPresentation) -> int:
    """Degree of the Hilbert polynomial (-1 when eventually zero).

    Computed honestly from the integer sequence: past m = sum(d_i) the
    Hilbert function agrees with its polynomial, so successive finite
    differences terminate at zero after degree+1 steps.
    """
    n = R.nvars - 1
    base = sum(R.relation_degrees) + 1
    span = n + 3
    vals = [hilbert_function(R, base + j) for j in range(span + 1)]
    deg = -1
    seq = vals
    while any(seq):
        deg += 1
        seq = [b - a for a, b in zip(seq, seq[1:])]
        if not seq:
            raise RuntimeError("difference table exhausted; sequence not polynomial?")
    return deg


def krull_dim(R: GradedRingPresentation) -> int:
    """Krull dimension of the graded ring: Hilbert polynomial degree + 1."""
    return hilbert_polynomial_degree(R) + 1


def variety_dim(R: GradedRingPresentation) -> int:
    """Dimension of the projective zero set: dim of the ring minus one."""
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
            if not mono_divides(lm, mono)]
