"""Exact scalars: Gaussian rationals and fraction-free rank computation.

Plain rationals are ``fractions.Fraction`` (arbitrary-precision, always
reduced, positive denominator).  :class:`GaussianRational` extends them to
a + b*i so that complex points and polynomial coefficients can be handled
without any floating arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

Exact = "Fraction | GaussianRational"


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class GaussianRational:
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    # -- conversions ---------------------------------------------------
    @classmethod
    def of(cls, x) -> "GaussianRational":
        """Coerce an int, Fraction or GaussianRational."""
        if isinstance(x, GaussianRational):
            return x
        return cls(_as_fraction(x))

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        n = o.norm_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        c = self * o.conjugate()
        return GaussianRational(c.re / n, c.im / n)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            o = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


I_UNIT = GaussianRational(0, 1)


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, GaussianRational))


def _scale_row_integral(row):
    """Clear denominators so Bareiss pivots stay (Gaussian-)integral."""
    row = [GaussianRational.of(x) for x in row]
    lcm = math.lcm(*(f.denominator for g in row for f in (g.re, g.im)))
    return [g * lcm for g in row]


def exact_rank(rows) -> int:
    """Rank of a matrix with exact entries, by fraction-free elimination.

    Rows may contain ints, Fractions or GaussianRationals.  Each row is
    scaled to integral entries first; the Bareiss recurrence then divides
    exactly at every step, so intermediate entries never grow into deep
    fraction trees.
    """
    m = [_scale_row_integral(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    prev = GaussianRational(1)
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[row][col] * m[i][j] - m[i][col] * m[row][j]) / prev
            m[i][col] = GaussianRational(0)
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
