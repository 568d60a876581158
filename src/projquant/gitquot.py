"""The circle acting diagonally on P^n: moment maps, invariants, stability,
and the desk-scale verification of the symplectic/GIT correspondence.

An action is its integer weight vector w: t . x = (t^w0 x0 : ... : t^wn xn),
with generator i*diag(w).  For such an action the Hilbert-Mumford criterion
reads stability off the weights on the support of a point, so orbit
dimensions, limits and invariance certificates are exact integer tests.  The
moment map divides by the squared coordinate norm so its value is
independent of the chosen representative (the numerator is quadratic in
the coordinates).  Semistability verdicts are always relative to a
supplied, exactly certified invariant set; the toolkit never claims to
enumerate the invariant ring.  They are exact: a point is semistable when
some invariant is nonzero at the exact value of its coordinates, a float
coordinate read as the binary rational it stores, so no threshold enters.
"""

from __future__ import annotations

import cmath
import math
import random

from .gaussrat import is_exact_scalar
from .poly import Polynomial
from .projgeo import ProjPoint, _exactify


class EmptyInvariantSetError(ValueError):
    pass


class LinearAction:
    """The circle U(1) acting on C^(n+1) by the generator i*diag(weights)."""

    def __init__(self, weights: tuple):
        self.weights = weights

    @classmethod
    def from_weights(cls, weights) -> "LinearAction":
        weights = tuple(weights)
        bad = [w for w in weights if int(w) != w]
        if bad:
            raise ValueError(f"weights must be integers, got {bad[0]!r}")
        return cls(tuple(int(w) for w in weights))

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    @property
    def k_dim(self) -> int:
        """Real dimension of the acting group: 1, or 0 when every weight is 0
        and the circle acts trivially."""
        return int(any(self.weights))


def _given(x) -> tuple:
    """The coordinates of x as given, exact ones not passed through complex():
    a ProjPoint's, or those of any sequence of numbers, numpy arrays
    included; each finite, not all 0."""
    v = x.coords if isinstance(x, ProjPoint) else tuple(x)
    if not all(is_exact_scalar(c) or cmath.isfinite(c) for c in v):
        raise ValueError(f"coordinates must be finite, got {v}")
    if not any(c != 0 for c in v):
        raise ValueError("zero vector does not represent a projective point")
    return v


def _coords(x) -> tuple:
    """The coordinates of x (_given) as complex numbers, not all 0 as such:
    complex() rounds an exact 1/10^400 to 0."""
    v = tuple(map(complex, _given(x)))
    if not any(v):
        raise ValueError("zero vector does not represent a projective point")
    return v


def moment_map(action: LinearAction, x) -> tuple:
    """Moment-map value at x, its one real component as a 1-tuple:
    (x* A x) / (2 pi i |x|^2) = sum w_j |x_j|^2 / (2 pi |x|^2) for the
    generator A = i*diag(w); the |x|^2 denominator makes it
    representative-independent.  With an exact coordinate in x, the ratio
    of the two sums is taken in Q and rounded once (float ones lifted).
    """
    v = _given(x)
    if any(map(is_exact_scalar, v)):
        a = [c.real * c.real + c.imag * c.imag for c in map(_exactify, v)]
        return (float(sum([w * p for w, p in zip(action.weights, a)]) / sum(a)) / (2.0 * math.pi),)
    return (_moment(action.weights, _squared_moduli(_coords(v))),)


def _squared_moduli(v) -> list:
    """|v_j|^2 for each coordinate of v, for mu.  When their sum leaves
    [1e-300, 1e300], v is scaled by 2^-e first, e the binary exponent of its
    largest part: exactly, so mu reads the same at (1e-200 : 1e-200) and at
    (1e200 : 1e200) as at (1 : 1)."""
    a = [c.real * c.real + c.imag * c.imag for c in v]
    if 1e-300 <= sum(a) <= 1e300:
        return a
    return _squared_moduli(_scaled(v))


def _scaled(v) -> list:
    """v times 2^-e, e the binary exponent of its largest real or imaginary
    part: exact, and every part then lies below 1 in modulus."""
    e = math.frexp(max([max(abs(c.real), abs(c.imag)) for c in v]))[1]
    return [complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for c in v]


def _moduli(v) -> tuple:
    """v and its moduli |v_j|, with v replaced by _scaled(v) when a modulus
    would leave the float range: (1.5e308+1.5e308j, 1e308) has no float
    |v_0|.  Otherwise v is returned as is, so every value read from it
    keeps its bits."""
    try:
        return v, [abs(c) for c in v]
    except OverflowError:
        return _moduli(_scaled(v))


def _moment(weights, a: list) -> float:
    """sum w_j a_j / (2 pi sum a_j): mu at the point of squared moduli a."""
    return sum([w * p for w, p in zip(weights, a)]) / (2.0 * math.pi * sum(a))


def infinitesimal_invariance(F: Polynomial, action: LinearAction) -> bool:
    """Certify invariance of F under the action, exactly: every term X^a of F
    has weight a . w = 0.  Differentiating along the generator i*diag(w)
    multiplies X^a by i (a . w), so this is the vanishing of the derivation of
    F, and it covers the whole complexified group."""
    if F.nvars != action.n + 1:
        raise ValueError("polynomial/action dimension mismatch")
    return all(sum(e * w for e, w in zip(mono, action.weights)) == 0 for mono in F.terms)


class InvariantSet:
    """Nonconstant homogeneous polynomials, each certified invariant exactly."""

    def __init__(self, polys: tuple):
        self.polys = polys

    @classmethod
    def certified(cls, polys, action: LinearAction) -> "InvariantSet":
        polys = tuple(polys)
        for F in polys:
            if F.is_zero or F.degree() < 1:
                raise ValueError("invariants must be nonconstant")
            if not F.is_homogeneous():
                raise ValueError("invariants must be homogeneous")
        bad = [str(F) for F in polys if not infinitesimal_invariance(F, action)]
        if bad:
            raise ValueError(f"not invariant under the action: {bad}")
        return cls(polys=polys)


def semistable(x, inv: InvariantSet) -> bool:
    """x is semistable (relative to the supplied invariants) when some
    nonconstant invariant does not vanish at it, decided exactly by
    _semistable_at at the coordinates as given."""
    if not inv.polys:
        raise EmptyInvariantSetError("cannot decide semistability from an empty set")
    return _semistable_at(inv.polys, _given(x))


def _semistable_at(polys, v) -> bool:
    """The semistability verdict of every caller: whether some invariant is
    nonzero at the coordinates v, exactly.  A one-term invariant is nonzero
    exactly where all of its variables are; any other is evaluated in Q(i)
    at v's exact value, each float coordinate lifted to the binary rational
    it stores (projgeo._exactify)."""
    exact = tuple(map(_exactify, v)) if any(len(F.terms) > 1 for F in polys) else v
    return any(F.evaluate(exact) != 0 if len(F.terms) > 1 else
               all(v[k] != 0 for k, e in enumerate(next(iter(F.terms))) if e) for F in polys)


def orbit_dim(action: LinearAction, x) -> int:
    """Complex dimension of the orbit of the complexified group through x:
    1 when the support of x carries two distinct weights, 0 when x is a
    fixed point."""
    return int(len({w for w, c in zip(action.weights, _given(x)) if c != 0}) > 1)


def one_param_limit(weights, x, direction: str) -> ProjPoint:
    """Limit of (t^w0 x0 : ... : t^wn xn) as t -> 0 (direction "0") or
    t -> infinity ("inf"): the coordinates at the least resp. greatest weight
    on the support survive.  The result is a fixed point of the subgroup."""
    if direction not in ("0", "inf"):
        raise ValueError("direction must be one of '0', 'inf'")
    v = _given(x)
    ext = _extremal_weights(weights, v)[direction == "inf"]
    return ProjPoint(tuple(c if w == ext else 0j for w, c in zip(weights, v)))


def orbit_meets_zero_level(action: LinearAction, x, tol: float = 1e-9):
    """Does the closure of the complexified orbit of x meet the zero level of
    the moment map?

    Along t = e^s the single moment component increases (it is the
    logarithmic derivative of a log-convex function) from w_lo / 2 pi to
    w_hi / 2 pi, the least and greatest weight on the support of x, so the
    closure meets the zero level exactly when w_lo <= 0 <= w_hi.  Returns
    (met, witness), the witness a ProjPoint on the zero level or None: the
    t -> 0 limit when w_lo = 0, else the t -> infinity limit when w_hi = 0,
    else a point of the orbit with |mu| <= tol found by a safeguarded scalar
    root search (_orbit_root).  tol decides no verdict: a search that does
    not reach it raises ArithmeticError.
    """
    witness = _zero_level_witness(action.weights, _given(x), tol)
    return (False, None) if witness is None else (True, ProjPoint(witness))


def _zero_level_witness(weights, v, tol: float):
    """The coordinates of orbit_meets_zero_level's witness or None.  The
    squared moduli are taken in log space (-inf off the support), so they do
    not underflow at 1e-200, and e^(s w) . v at the root s is scaled so that
    its largest coordinate has modulus 1 and no coordinate overflows."""
    v, phases, log_a = _polar(v)
    ws, las = (weights, log_a) if -math.inf not in log_a else zip(
        *((w, a) for w, a in zip(weights, log_a) if a > -math.inf))
    w_lo, w_hi = min(ws), max(ws)
    if not w_lo <= 0 <= w_hi:
        return None
    if w_lo == 0 or w_hi == 0:
        return one_param_limit(weights, v, "0" if w_lo == 0 else "inf").coords
    s = _orbit_root(ws, las, w_lo, w_hi, tol)
    e = [a + 2.0 * s * w for w, a in zip(weights, log_a)]
    top = max(e)
    return tuple(p * math.exp(0.5 * (x - top)) if p else 0j for p, x in zip(phases, e))


def _polar(v) -> tuple:
    """v, its phases c/|c| and its 2 log |c| (0 and -inf at c = 0): with an exact
    coordinate in v from |c|^2 in Q through integer logs, else in floats (_moduli)."""
    if not any(map(is_exact_scalar, v)):
        v, mods = _moduli(tuple(map(complex, v)))
        return v, [c / r if r else 0j for c, r in zip(v, mods)], [
            2.0 * math.log(r) if r else -math.inf for r in mods]
    parts = [(c.real, c.imag, max(abs(c.real), abs(c.imag))) for c in map(_exactify, v)]
    z = [complex(x / t, y / t) if t else 0j for x, y, t in parts]  # its larger part is 1
    a = [x * x + y * y for x, y, _ in parts]
    return v, [c / abs(c) if c else 0j for c in z], [
        math.log(p.numerator) - math.log(p.denominator) if p else -math.inf for p in a]


def _orbit_root(ws, las, w_lo: int, w_hi: int, tol: float) -> float:
    """s with |mu| <= tol at e^(s w) . v, for the support weights ws of v,
    least w_lo < 0 < greatest w_hi, and las = 2 log |v_j| on the support:
    mu has one root along the orbit.  Newton steps (mu' = Var_p(w) / pi;
    the midpoint when a step leaves the bracket or the slope is 0) narrow
    it, for at most 200 evaluations, from the root of the two extremal
    weight classes (P = sum of |v_j|^2 over a class; exact when the nonzero
    support weights take two values); ArithmeticError, naming |mu| and tol,
    when they do not reach tol.  The bracket: for s >= 0 the numerator
    sum w_j |v_j|^2 e^(2 s w_j) has positive part at least
    w_hi P_hi e^(2 s w_hi) and negative part at most its size N_- at s = 0,
    so mu >= 0 at s_hi = max(0, ln(N_- / (w_hi P_hi)) / (2 w_hi)); s_lo
    likewise from N_+ and |w_lo| P_lo."""
    # log w_hi P_hi, log |w_lo| P_lo, log N_+ and log N_- from log |w_j| |v_j|^2 in
    # one pass; a sign class that is its extremal class is not summed again
    at_hi, at_lo, pos, neg = [], [], [], []
    for w, a in zip(ws, las):
        if w:
            t = math.log(abs(w)) + a
            (pos if w > 0 else neg).append(t)
            (at_hi if w == w_hi else at_lo if w == w_lo else []).append(t)
    top, bottom = _log_sum(at_hi), _log_sum(at_lo)
    n_plus = _log_sum(pos) if len(pos) > len(at_hi) else top
    n_minus = _log_sum(neg) if len(neg) > len(at_lo) else bottom
    lo = min(0.0, (n_plus - bottom) / (2.0 * w_lo))
    hi = max(0.0, (n_minus - top) / (2.0 * w_hi))
    x = min(max((bottom - top) / (2.0 * (w_hi - w_lo)), lo), hi)
    for _ in range(200):
        mu, slope = _ray_moment_map(ws, las, x)
        if abs(mu) <= tol:
            return x
        lo, hi = (lo, x) if mu > 0 else (x, hi)  # mu increases with s
        step = x - mu / slope if slope else lo  # slope 0: no step, the midpoint
        x = step if lo < step < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"orbit search: |mu| = {abs(mu)!r} after 200 evaluations, "
                          f"above tol = {tol!r}")


def _log_sum(terms: list) -> float:
    """log sum exp of the terms, shifted by their maximum."""
    if len(terms) == 1:
        return terms[0]
    big = max(terms)
    return big + math.log(sum([math.exp(t - big) for t in terms]))


def _ray_moment_map(weights, log_a, s: float):
    """mu at e^(s w) . v and d mu / ds: sum w_j p_j / (2 pi sum p_j) and
    Var_p(w) / pi, p_j = |v_j|^2 e^(2 s w_j) (log_a = 2 log |v_j| given),
    the exponents shifted by their maximum.  Every evaluation of the orbit
    search goes through here."""
    e = [a + 2.0 * s * w for w, a in zip(weights, log_a)]
    top = max(e)
    z = m1 = m2 = 0.0
    for w, x in zip(weights, e):
        p = math.exp(x - top)
        z += p
        m1 += p * w
        m2 += p * w * w
    mean = m1 / z
    return mean / (2.0 * math.pi), (m2 / z - mean * mean) / math.pi


def _extremal_weights(weights, v) -> tuple:
    """Least and greatest weight on the support of v: the weights whose
    coordinates survive as t -> 0 and t -> infinity."""
    live = [w for w, c in zip(weights, v) if c]
    return min(live), max(live)


def is_stable(action: LinearAction, x, inv: InvariantSet) -> bool:
    """Stability: full-dimensional orbit, semistable, and a closedness
    surrogate: both one-parameter limits leave the semistable locus (so the
    orbit is closed within it; a trivial action has no limits to leave).
    Neither limit can lie on the orbit itself: the support of a semistable
    point with a one-dimensional orbit carries two weights (one weight
    w != 0 makes every invariant vanish, w = 0 fixes the point), so each
    limit drops a coordinate.  General closedness is not decided here."""
    if not semistable(x, inv) or orbit_dim(action, x) != action.k_dim:
        return False
    return action.k_dim == 0 or not any(
        semistable(one_param_limit(action.weights, x, direction), inv)
        for direction in ("0", "inf"))


def kirwan_correspondence_check(action: LinearAction, inv: InvariantSet | None,
                                n_samples: int = 200, seed: int = 0) -> dict:
    """Sample-based check of the semistable/zero-level correspondence.

    For each sampled point the semistability verdict (from the certified
    invariants) is compared with the orbit verdict w_lo <= 0 <= w_hi of
    orbit_meets_zero_level, from the extremal weights on the support.
    The zero level must consist of semistable points only: the verdict
    holds when the sampler's points and the sample rows with |mu| <= 1e-7
    are all semistable, and fails when there are none.  The quotient's
    complex dimension is read off the weights, not sampled: the zero level
    mod K is the GIT quotient (Kempf-Ness), n - 1 dimensional when the
    weights take both signs (full-support points are semistable, with
    one-dimensional orbits), else the P^(z-1) of the z zero-weight
    coordinates.  One sign and no zero weight leaves no invariant, and the
    report stops before.
    """
    weights = action.weights
    if inv is None or not inv.polys:
        return {"n_samples": 0, "equivalence_holds": None, "verdict": "no nonconstant "
                "certified invariants: semistable locus not determined"}
    rng = random.Random(seed)
    n = action.n + 1
    points = [_ray(rng, n) for _ in range(max(0, n_samples - 2 * n))]
    points += [tuple(complex(i == j) for i in range(n)) for j in range(n)]
    points += [_ray(rng, n) for _ in range(max(0, n_samples - len(points)))]
    # the verdicts on the zero level: the sampler's points, then the sample rows there
    zero = [_semistable_at(inv.polys, v) for v in _zero_level_samples(action, rng)]
    rows, mismatches, zero_level = [], 0, 0
    for v in points:  # one pass per sample, each coordinate formatted once, as in format_point
        mu = _moment(weights, _squared_moduli(v))
        semi = _semistable_at(inv.polys, v)
        w_lo, w_hi = _extremal_weights(weights, v)
        met = w_lo <= 0 <= w_hi
        mismatches += semi != met
        if abs(mu) <= 1e-7:
            zero_level += 1
            zero.append(semi)
        text = [repr(c.real) if c.imag == 0 else repr(c) for c in v]
        to_zero, to_inf = (" : ".join([t if w == ext else "0.0" for w, t in zip(weights, text)])
                           for ext in (w_lo, w_hi))
        rows.append({"point": f"({' : '.join(text)})", "semistable": semi,
                     "orbit_meets_zero_level": met, "mu": [mu],
                     "limit_t_to_0": f"({to_zero})", "limit_t_to_inf": f"({to_inf})"})
    return {
        "n_samples": len(points),
        "samples": rows,
        "equivalence_holds": mismatches == 0,
        "mismatches": mismatches,
        "zero_level_sampled": zero_level,
        "zero_level_all_semistable": bool(zero) and all(zero),
        "quotient_dim": action.n - 1 if min(weights) < 0 < max(weights) else weights.count(0) - 1,
    }


def _zero_level_samples(action: LinearAction, rng: random.Random) -> list:
    """Deterministic points on the moment zero level, found by the orbit
    search along random rays, one root per ray and at most 50 * 64 rays, a
    ray whose search misses skipped: at most 64 coordinate tuples."""
    weights, n = action.weights, action.n + 1
    out = []
    for _ in range(50 * 64):
        if len(out) == 64:
            break
        try:
            w = _zero_level_witness(weights, _ray(rng, n), 1e-12)
        except ArithmeticError:
            continue
        if w is not None and abs(_moment(weights, _squared_moduli(w))) <= 1e-10:
            out.append(w)
    return out


def _ray(rng: random.Random, n: int) -> tuple:
    """A random point of C^n, real and imaginary parts standard normal: each
    coordinate by Box-Muller from two uniforms of the stream, modulus
    sqrt(-2 ln(1 - U)) and phase 2 pi U'."""
    return tuple([cmath.rect(math.sqrt(-2.0 * math.log(1.0 - rng.random())),
                             math.tau * rng.random()) for _ in range(n)])
