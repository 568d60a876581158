"""Multivariate polynomials with exact coefficients.

Coefficients lie in Q(i): a real one is a ``Fraction``, any other a
:class:`~projquant.gaussrat.GaussianRational`, and arithmetic whose result
has imaginary part 0 returns a Fraction.  Exponent vectors are tuples.
Terms iterate in graded-lexicographic order (total degree first, then
X0 > X1 > ...), which fixes serialization and leading monomials
deterministically.
"""

from __future__ import annotations

import itertools
import re as _re
from fractions import Fraction

from .gaussrat import GaussianRational, is_exact_scalar


def grlex_key(mono):
    """Sort key putting monomials in graded-lex *ascending* order."""
    return (sum(mono), mono)


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree, graded-lex descending."""
    if nvars == 0:
        return [()] if degree == 0 else []
    monos = []
    for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1):
        prev = -1
        expts = []
        for b in bars:
            expts.append(b - prev - 1)
            prev = b
        expts.append(degree + nvars - 2 - prev)
        monos.append(tuple(expts))
    monos.sort(key=grlex_key, reverse=True)
    return monos


def _coerce_coeff(c):
    if not is_exact_scalar(c):
        raise TypeError(f"polynomial coefficients must be exact, got {type(c).__name__}")
    return Fraction(c) if isinstance(c, int) else c


class Polynomial:
    """Immutable multivariate polynomial over the (Gaussian) rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        cleaned = {}
        for mono, c in (terms or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for {nvars} variables")
            c = _coerce_coeff(c)
            if c != 0:
                cleaned[mono] = cleaned.get(mono, 0) + c
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "terms", {m: c for m, c in cleaned.items() if c != 0})

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def monomial(cls, nvars, expts, coeff=1):
        return cls(nvars, {tuple(expts): coeff})

    # -- structure -------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def iter_terms(self):
        """(monomial, coefficient) pairs, graded-lex descending."""
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            yield mono, self.terms[mono]

    def leading_monomial(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    # -- arithmetic --------------------------------------------------------
    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        if is_exact_scalar(other):
            other = Polynomial.constant(self.nvars, other)
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if is_exact_scalar(other):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_exact_scalar(other):
            return Polynomial(self.nvars, {m: c * other for m, c in self.terms.items()})
        self._check_compatible(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        return _powu(self, k) if k else Polynomial.constant(self.nvars, 1)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------
    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to X_i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        terms = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            mono = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            terms[mono] = terms.get(mono, 0) + c * m[i]
        return Polynomial(self.nvars, terms)

    def evaluate(self, coords):
        """Value at a coordinate tuple.

        Exact coordinates (int/Fraction/GaussianRational) give an exact
        result; anything else is evaluated in complex floating point.
        Term summation follows the canonical graded-lex order, so float
        results are reproducible.
        """
        coords = tuple(coords)
        if len(coords) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(coords)}")
        if all(is_exact_scalar(c) for c in coords):
            total = Fraction(0)
            for m, c in self.terms.items():
                for x, e in zip(coords, m):
                    if e:
                        c = c * _powu(x, e)
                total = total + c
            return total
        return complex(self.evaluate_array([complex(x) for x in coords]))

    def evaluate_array(self, coords):
        """Float value at coordinates that may be numpy arrays (broadcast); rational
        coefficients enter as floats, so real input gives the complex path's real part.
        Unit coefficients add no factor, the zero polynomial gives 0.0, and the
        coordinates of variables no term uses are never read (they may be None)."""
        total = None
        for m, c in self.iter_terms():
            v = None if c == 1 else complex(c) if isinstance(c, GaussianRational) else float(c)
            for x, e in zip(coords, m):
                if e:
                    v = _powu(x, e) if v is None else v * _powu(x, e)
            v = 1.0 if v is None else v
            total = v if total is None else total + v
        return 0.0 if total is None else total

    def dehomogenize(self, i: int) -> "Polynomial":
        """Set X_i = 1 and drop that variable (affine chart alpha_i != 0)."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"chart index {i} out of range")
        terms = {}
        for m, c in self.terms.items():
            mono = m[:i] + m[i + 1:]
            terms[mono] = terms.get(mono, 0) + c
        return Polynomial(self.nvars - 1, terms)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {format_polynomial(self)!r})"


def _powu(x, e: int):
    """x**e for e >= 1 by binary exponentiation, as CPython does for complex."""
    out = x if e & 1 else None
    while e > 1:
        e, x = e >> 1, x * x
        if e & 1:
            out = x if out is None else out * x
    return out


# ---------------------------------------------------------------------------
# text format: "c * X0^a0 X1^a1 ..." terms joined by +/-, rationals as p/q
# ---------------------------------------------------------------------------

#: one factor: a rational p or p/q, or a variable Xi or Xi^e (x for X allowed)
_FACTOR = _re.compile(r"(\d+(?:/\d+)?)|[Xx](\d+)(?:\^(\d+))?")
#: one term: its signs (and stray '*'), then its factors with optional '*'
#: between them; whitespace may precede every token
_TERM = _re.compile(rf"((?:\s*[+*-])*)((?:\s*(?:{_FACTOR.pattern}|\*))*)")


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for mono, c in p.iter_terms():
        if isinstance(c, GaussianRational):
            coeff_str, negative = str(c), False
        else:
            negative = c < 0
            coeff_str = str(abs(c))
        factors = [f"X{i}^{e}" if e > 1 else f"X{i}"
                   for i, e in enumerate(mono) if e > 0]
        if not factors:
            body = coeff_str
        elif coeff_str == "1":
            body = "*".join(factors)
        else:
            body = coeff_str + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the textual format back into a Polynomial: an exact round-trip
    for rational coefficients (a Gaussian coefficient's text is rejected).

    Accepts optional '*' separators and '^' powers, e.g. "1/2*X0^2 X1 - X2^3",
    in the variables X0 .. X(nvars-1).
    """
    terms, pos = [], 0  # (coefficient, {variable index: exponent})
    while (m := _TERM.match(text, pos)).end() > pos:
        pos, signs, body = m.end(), m[1], m[2]
        if not body:  # signs with no factor after them add no term
            continue
        coeff, powers = Fraction(-1 if signs.count("-") % 2 else 1), {}
        for rat, idx, exp in _FACTOR.findall(body):
            if not rat:
                powers[int(idx)] = powers.get(int(idx), 0) + int(exp or 1)
                continue
            try:
                coeff *= Fraction(rat)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {rat!r}") from None
        terms.append((coeff, powers))
    if text[pos:].strip():
        raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
    if not terms:
        raise ValueError("empty polynomial text")
    max_idx = max((max(powers, default=-1) for _, powers in terms), default=-1)
    if max_idx >= nvars:
        raise ValueError(f"variable X{max_idx} exceeds nvars={nvars}")
    acc = {}
    for c, powers in terms:
        mono = tuple(powers.get(i, 0) for i in range(nvars))
        acc[mono] = acc.get(mono, 0) + c
    return Polynomial(nvars, acc)
