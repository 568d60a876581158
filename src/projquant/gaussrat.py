"""Exact scalars: Gaussian rationals and fraction-free rank computation.

Exact values lie in Q(i).  A real one is a ``fractions.Fraction`` (or an
int): :class:`GaussianRational` holds a + b*i only for b != 0, and building
one with b = 0, directly or as the result of arithmetic, gives the Fraction
a instead.  So no caller lifts rationals before arithmetic or demotes
results after it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class GaussianRational:
    """Exact complex number a + b*i with rational a and nonzero rational b.

    ``GaussianRational(a, 0)`` is the Fraction a.  Like int and Fraction it
    has ``.real`` and ``.imag``.
    """

    __slots__ = ("real", "imag")

    def __new__(cls, real=0, imag=0):
        real, imag = _as_fraction(real), _as_fraction(imag)
        if imag == 0:
            return real
        self = object.__new__(cls)
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "imag", imag)
        return self

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __new__
        return (GaussianRational, (self.real, self.imag))

    def __complex__(self):
        return float(self.real) + 1j * float(self.imag)

    # -- arithmetic ----------------------------------------------------
    # an operand that is not an exact scalar gets its own reflected method,
    # so a Polynomial scales or shifts by a Gaussian rational from either side
    def __add__(self, other):
        if not is_exact_scalar(other):
            return NotImplemented
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        if not is_exact_scalar(other):
            return NotImplemented
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not is_exact_scalar(other):
            return NotImplemented
        return GaussianRational(self.real * other.real - self.imag * other.imag,
                                self.real * other.imag + self.imag * other.real)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not is_exact_scalar(other):
            return NotImplemented
        re, im = other.real, other.imag
        n = re * re + im * im
        return GaussianRational((self.real * re + self.imag * im) / n,
                                (self.imag * re - self.real * im) / n)

    def __rtruediv__(self, other):
        return other * self.conjugate() / self.norm_sq()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def norm_sq(self) -> Fraction:
        return self.real * self.real + self.imag * self.imag

    # -- predicates ----------------------------------------------------
    def __eq__(self, other):
        if not is_exact_scalar(other):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        return hash((self.real, self.imag))

    def __repr__(self):
        return f"GaussianRational({self.real}, {self.imag})"

    def __str__(self):
        sign = "+" if self.imag >= 0 else "-"
        return f"({self.real}{sign}{abs(self.imag)}i)"


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, GaussianRational))


def _scale_row_integral(row):
    """Clear denominators so Bareiss pivots stay (Gaussian-)integral."""
    lcm = math.lcm(*(part.denominator for x in row for part in (x.real, x.imag)))
    return [x * lcm for x in row]


def exact_rank(rows) -> int:
    """Rank of a matrix with exact entries, by fraction-free elimination.

    Rows may contain ints, Fractions or GaussianRationals.  Each row is
    scaled to integral entries first; the Bareiss recurrence then divides
    exactly at every step, so intermediate entries never grow into deep
    fraction trees.  Rational rows stay rational throughout.
    """
    m = [_scale_row_integral(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    prev = Fraction(1)  # a Fraction, so that int / int never gives a float
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[row][col] * m[i][j] - m[i][col] * m[row][j]) / prev
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
