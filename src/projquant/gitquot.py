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
enumerate the invariant ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial
from .projgeo import ProjPoint


class EmptyInvariantSetError(ValueError):
    pass


@dataclass(frozen=True)
class LinearAction:
    """The circle U(1) acting on C^(n+1) by the generator i*diag(weights)."""

    weights: tuple

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


def _coords(x) -> np.ndarray:
    if isinstance(x, ProjPoint):
        return x.to_complex()
    v = np.asarray(x, dtype=complex)
    if not np.any(v):
        raise ValueError("zero vector does not represent a projective point")
    return v


def moment_map(action: LinearAction, x) -> np.ndarray:
    """Moment-map value at x, one real component:
    (x* A x) / (2 pi i |x|^2) = sum w_j |x_j|^2 / (2 pi |x|^2) for the
    generator A = i*diag(w); the |x|^2 denominator makes it
    representative-independent.
    """
    return _moment_rows(action, _coords(x)[None, :])[0]


def _moment_rows(action: LinearAction, V: np.ndarray) -> np.ndarray:
    """moment_map of each row v of V, shape (rows, 1):
    Im(sum conj(v_j) (i w_j v_j)) / (2 pi |v|^2).  Elementwise products and
    row sums only, so a row's value does not depend on the rows stacked with
    it."""
    gen = np.array([1j * w for w in action.weights], dtype=complex)
    num = np.add.reduce(V.conj() * (gen * V), axis=-1)
    nrm2 = np.add.reduce(V.real * V.real + V.imag * V.imag, axis=1)
    return (num.imag / (2.0 * math.pi * nrm2))[:, None]


def infinitesimal_invariance(F: Polynomial, action: LinearAction) -> bool:
    """Certify invariance of F under the action, exactly: every term X^a of F
    has weight a . w = 0.  Differentiating along the generator i*diag(w)
    multiplies X^a by i (a . w), so this is the vanishing of the derivation of
    F, and it covers the whole complexified group."""
    if F.nvars != action.n + 1:
        raise ValueError("polynomial/action dimension mismatch")
    return all(sum(e * w for e, w in zip(mono, action.weights)) == 0 for mono in F.terms)


@dataclass(frozen=True)
class InvariantSet:
    """Nonconstant homogeneous polynomials, each certified invariant exactly."""

    polys: tuple

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


def semistable(x, inv: InvariantSet, tol: float = 0.0) -> bool:
    """x is semistable (relative to the supplied invariants) when some
    nonconstant invariant does not vanish at it; scale-invariant test.  At a
    float point, tol bounds (|F(x)| / |x|^deg F)^(1 / deg F), which is on the
    scale of a coordinate whatever the degree of F."""
    if not inv.polys:
        raise EmptyInvariantSetError("cannot decide semistability from an empty set")
    if isinstance(x, ProjPoint) and x.is_exact and tol == 0.0:
        return any(F.evaluate(x.coords) != 0 for F in inv.polys)
    return bool(np.any(_invariant_moduli(inv, _coords(x)[None, :]) > tol))


def _invariant_moduli(inv: InvariantSet, V: np.ndarray) -> np.ndarray:
    """(|F(v)| / ||v||^deg F)^(1 / deg F) for each row v of V, one column per
    invariant: for a monomial, the weighted geometric mean of |v_k| / ||v||
    over its variables, so one threshold serves every degree.  Each term's
    log modulus and phase are sums over u = v / ||v||, and the terms are
    shifted by the row's largest log modulus before they are summed, so no
    product of moduli underflows: X0^201 X1^200 at (1e-3 : 1) reads 0.03,
    not 0."""
    U = V / np.linalg.norm(V, axis=1)[:, None]
    log_u, arg_u = _log_moduli(U) / 2.0, np.angle(U)
    cols = []
    for F in inv.polys:
        terms = [(complex(c), sum(e * log_u[:, k] for k, e in enumerate(m) if e),
                  sum(e * arg_u[:, k] for k, e in enumerate(m) if e)) for m, c in F.iter_terms()]
        top = np.max([r for _, r, _ in terms], axis=0)
        top = np.where(top > -np.inf, top, 0.0)  # every term 0: no shift
        total = sum(c * np.exp(r - top) * np.exp(1j * t) for c, r, t in terms)
        cols.append(np.exp((top + _log_moduli(total) / 2.0) / F.degree()))
    return np.stack(cols, axis=1)


def orbit_dim(action: LinearAction, x) -> int:
    """Complex dimension of the orbit of the complexified group through x:
    1 when the support of x carries two distinct weights, 0 when x is a
    fixed point."""
    return int(len({w for w, c in zip(action.weights, _coords(x)) if c != 0}) > 1)


def one_param_limit(weights, x, direction: str) -> ProjPoint:
    """Limit of (t^w0 x0 : ... : t^wn xn) as t -> 0 (direction "0") or
    t -> infinity ("inf"): the coordinates at the least resp. greatest weight
    on the support survive.  The result is a fixed point of the subgroup."""
    if direction not in ("0", "inf"):
        raise ValueError("direction must be one of '0', 'inf'")
    to_zero, to_inf = _limits(weights, _coords(x)[None, :])
    return ProjPoint(tuple((to_zero if direction == "0" else to_inf)[0]))


def _limits(weights, V: np.ndarray):
    """The t -> 0 and t -> infinity limits of each row of V: the coordinates
    at the least and at the greatest weight on its support survive, the
    rest vanish."""
    w = np.array(weights, dtype=float)
    return tuple(np.where(w == ext[:, None], V, 0.0) for ext in _extremal_weights(weights, V))


def orbit_meets_zero_level(action: LinearAction, x, tol: float = 1e-9):
    """Does the closure of the complexified orbit of x meet the zero level of
    the moment map?

    Along t = e^s the single moment component is increasing in s (it is the
    logarithmic derivative of a log-convex function), so it has a root
    exactly when the support weights have both signs, found by a safeguarded
    scalar root search (_orbit_root); both t -> 0 and t -> infinity limit
    points are also inspected, exactly.  Returns (met, witness) with the
    witness a ProjPoint or None; tol bounds |mu| at a witness found by the
    search and decides no verdict.
    """
    v = _coords(x)
    witness = _zero_level_witness(action.weights, v, _log_moduli(v).tolist(), tol)
    return (False, None) if witness is None else (True, ProjPoint(tuple(witness)))


def _log_moduli(V: np.ndarray) -> np.ndarray:
    """2 log |v_j| for each entry of V, -inf where it is 0: the squared
    moduli in log space, which do not underflow at moduli of 1e-200."""
    return 2.0 * np.log(np.abs(V), out=np.full(V.shape, -np.inf), where=V != 0)


def _zero_level_witness(weights, v: np.ndarray, log_a: list, tol: float):
    """Coordinates where the orbit closure of v (log_a: its _log_moduli)
    meets the zero level, or None: the t -> 0 or t -> infinity limit for a
    root at -inf or inf, else e^(s w) . v at the root s, scaled so that its
    largest coordinate has modulus 1 and no coordinate overflows."""
    s = _orbit_root(weights, log_a, tol)
    if math.isnan(s):
        return None
    if math.isinf(s):
        to_zero, to_inf = _limits(weights, v[None, :])
        return (to_zero if s < 0 else to_inf)[0]
    e = [a + 2.0 * s * w for w, a in zip(weights, log_a)]
    top = max(e)
    return [c / abs(c) * math.exp(0.5 * (x - top)) if c else 0j for c, x in zip(v.tolist(), e)]


def _orbit_root(weights, log_a: list, tol: float) -> float:
    """Where the orbit closure of v (log_a = 2 log |v_j|, -inf off the
    support) meets the zero level: -inf or inf for the t -> 0 or
    t -> infinity limit (mu = extremal weight on the support / 2 pi, zero
    exactly when that weight is; '0' first), s for e^(s w) . v with
    |mu| <= tol there, nan when it does not.
    Support weights w_lo < 0 < w_hi give one root.  Newton steps
    (mu' = Var_p(w) / pi; the midpoint when a step leaves the bracket or the
    slope is 0) narrow it, for at most 200 evaluations, from the root of the
    two extremal weight classes (P = sum of |v_j|^2 over a class; exact when
    the nonzero support weights take two values).  The bracket: for s >= 0
    the numerator sum w_j |v_j|^2 e^(2 s w_j) has positive part at least
    w_hi P_hi e^(2 s w_hi) and negative part at most its size N_- at s = 0,
    so mu >= 0 at s_hi = max(0, ln(N_- / (w_hi P_hi)) / (2 w_hi)); s_lo
    likewise from N_+ and |w_lo| P_lo."""
    ws, las = zip(*((w, a) for w, a in zip(weights, log_a) if a > -math.inf))
    w_lo, w_hi = min(ws), max(ws)
    if w_lo == 0:
        return -math.inf
    if w_hi == 0:
        return math.inf
    if not w_lo < 0 < w_hi:
        return math.nan
    # log w_hi P_hi, log |w_lo| P_lo, log N_+ and log N_- from log |w_j| |v_j|^2
    terms = [(w, math.log(abs(w)) + a) for w, a in zip(ws, las) if w]
    top, bottom, n_plus, n_minus = (_log_sum([t for w, t in terms if keep(w)]) for keep in (
        lambda w: w == w_hi, lambda w: w == w_lo, lambda w: w > 0, lambda w: w < 0))
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
    return math.nan


def _log_sum(terms: list) -> float:
    """log sum exp of the terms, shifted by their maximum."""
    big = max(terms)
    return big + math.log(sum(math.exp(t - big) for t in terms))


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


def _extremal_weights(weights, V: np.ndarray):
    """Least and greatest weight on the support of each row of V: the
    weights whose coordinates survive as t -> 0 and t -> infinity."""
    w_live = np.where(V != 0, np.array(weights, dtype=float), np.nan)
    return np.fmin.reduce(w_live, axis=1), np.fmax.reduce(w_live, axis=1)


def is_stable(action: LinearAction, x, inv: InvariantSet,
              tol: float = 0.0) -> bool:
    """Stability: full-dimensional orbit, semistable, and a closedness
    surrogate: both one-parameter limits leave the semistable locus (so the
    orbit is closed within it; a trivial action has no limits to leave).
    Neither limit can lie on the orbit itself: the support of a semistable
    point with a one-dimensional orbit carries two weights (one weight
    w != 0 makes every invariant vanish, w = 0 fixes the point), so each
    limit drops a coordinate.  General closedness is not decided here."""
    if not semistable(x, inv, tol) or orbit_dim(action, x) != action.k_dim:
        return False
    return action.k_dim == 0 or not any(
        semistable(one_param_limit(action.weights, x, direction), inv, tol)
        for direction in ("0", "inf"))


def kirwan_correspondence_check(action: LinearAction, inv: InvariantSet | None,
                                n_samples: int = 200, seed: int = 0) -> dict:
    """Sample-based check of the semistable/zero-level correspondence.

    For each sampled point the semistability verdict (from the certified
    invariants) is compared with whether the orbit closure meets the zero
    level, read off the moment map's limits: along the orbit mu runs
    monotonically between w_lo / 2 pi and w_hi / 2 pi, the extremal weights
    on the support, so the closure meets 0 exactly when w_lo <= 0 <= w_hi.
    The zero level must consist of semistable points only.  The quotient's
    complex dimension is read off the weights, not sampled: the zero level
    mod K is the GIT quotient (Kempf-Ness), n - 1 dimensional when the
    weights take both signs (full-support points are semistable, with
    one-dimensional orbits), else the P^(z-1) of the z zero-weight
    coordinates.  One sign and no zero weight leaves no invariant, and the
    report stops before.
    """
    weights = action.weights
    if inv is None or not inv.polys:
        return {
            "n_samples": 0,
            "verdict": "no nonconstant certified invariants: semistable locus "
                       "not determined",
            "equivalence_holds": None,
        }
    rng = np.random.default_rng(seed)
    n = action.n + 1
    head = _rays(rng, max(0, n_samples - 2 * n), n)
    tail = _rays(rng, max(0, n_samples - len(head) - n), n)  # after every coordinate fixed point
    V = np.concatenate([head, np.eye(n), tail])
    zl_phases = _zero_level_samples(action, rng, count=64)
    semi, zl_semi = np.split(np.any(_invariant_moduli(inv, np.concatenate([V, zl_phases])) > 1e-12,
                                    axis=1), [len(V)])
    w_lo, w_hi = _extremal_weights(weights, V)
    met = (w_lo <= 0) & (w_hi >= 0)
    mismatches = int(np.count_nonzero(semi != met))
    mus = _moment_rows(action, V)
    points = _format_rows(V)
    limits = map(_format_rows, _limits(weights, V))
    rows = [{"point": p, "semistable": a, "orbit_meets_zero_level": b,
             "mu": mu, "limit_t_to_0": l0, "limit_t_to_inf": linf}
            for p, a, b, mu, l0, linf in zip(points, semi.tolist(), met.tolist(), mus.tolist(),
                                              *limits)]

    zl = np.linalg.norm(mus, axis=1) <= 1e-7
    zero_all_semistable = bool(np.all(semi[zl]) and np.all(zl_semi))
    return {
        "n_samples": len(points),
        "samples": rows,
        "equivalence_holds": mismatches == 0,
        "mismatches": mismatches,
        "zero_level_sampled": int(np.count_nonzero(zl)),
        "zero_level_all_semistable": zero_all_semistable,
        "quotient_dim": action.n - 1 if min(weights) < 0 < max(weights) else weights.count(0) - 1,
    }


def _format_rows(V: np.ndarray) -> list[str]:
    """format_point of each row of V, without building the points: each
    coordinate is repr of its real part when its imaginary part is 0, as
    projgeo._format_coord writes a complex float."""
    return ["(" + " : ".join(repr(c.real) if c.imag == 0 else repr(c) for c in row) + ")"
            for row in V.tolist()]


def _zero_level_samples(action: LinearAction, rng, count: int = 64) -> np.ndarray:
    """Deterministic points on the moment zero level, found by the orbit
    search along random rays (drawn in blocks, one root per ray): the rows of
    an (N, n+1) array, N <= count."""
    weights, n = action.weights, action.n + 1
    out, tries = np.empty((0, n), dtype=complex), 0
    while len(out) < count and tries < 50 * count:
        block = min(count - len(out), 50 * count - tries)
        tries += block
        X = _rays(rng, block, n)
        W = np.array([w for v, log_a in zip(X, _log_moduli(X).tolist())
                      if (w := _zero_level_witness(weights, v, log_a, 1e-12)) is not None],
                     dtype=complex).reshape(-1, n)
        out = np.concatenate([out, W[np.abs(_moment_rows(action, W)[:, 0]) <= 1e-10]])
    return out


def _rays(rng, count: int, n: int) -> np.ndarray:
    """count random points of C^n, real and imaginary parts standard normal,
    drawn as count (re, im) pairs of n normals from one stream."""
    ri = rng.normal(size=(count, 2, n))
    return ri[:, 0] + 1j * ri[:, 1]
