"""Linear group actions on P^n: moment maps, invariants, stability, and the
desk-scale verification of the symplectic/GIT correspondence.

The compact group acts unitarily through a basis of anti-hermitian
generators.  The moment map divides by the squared coordinate norm so its
value is independent of the chosen representative (the numerator is
quadratic in the coordinates).  Semistability verdicts are always relative
to a supplied, exactly certified invariant set; the toolkit never claims to
enumerate the invariant ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussrat import GaussianRational, I_UNIT
from .poly import Polynomial
from .projgeo import ProjPoint, _float_matrix_rank, format_point

ANTIHERMITIAN_TOL = 1e-12
K_ORBIT_TOL = 1e-8


class InexactGeneratorsError(TypeError):
    pass


class EmptyInvariantSetError(ValueError):
    pass


class NotDiagonalError(ValueError):
    pass


@dataclass(frozen=True)
class LinearAction:
    """Action of a compact group on C^(n+1) by a basis of its Lie algebra.

    generators: complex (n+1)x(n+1) anti-hermitian matrices (images of the
    Lie-algebra basis).  exact_generators optionally carries the same
    matrices with GaussianRational entries for certified polynomial
    invariance checks.  weights describes a diagonal one-parameter subgroup
    when the action has one.
    """

    n: int
    generators: tuple
    exact_generators: tuple | None = None
    weights: tuple | None = None

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=complex) for g in self.generators)
        for g in gens:
            if g.shape != (self.n + 1, self.n + 1):
                raise ValueError("generator of wrong shape")
            if np.max(np.abs(g + g.conj().T)) > ANTIHERMITIAN_TOL:
                raise ValueError("generator is not anti-hermitian")
        object.__setattr__(self, "generators", gens)
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    @classmethod
    def from_weights(cls, weights) -> "LinearAction":
        """Diagonal U(1) subgroup with generator i*diag(weights)."""
        weights = tuple(int(w) for w in weights)
        n = len(weights) - 1
        gen = np.diag([1j * w for w in weights])
        exact = tuple(tuple(I_UNIT * w if i == j else GaussianRational(0)
                            for j, w in enumerate(weights))
                      for i in range(n + 1))
        return cls(n=n, generators=(gen,), exact_generators=(exact,),
                   weights=weights)

    @classmethod
    def trivial(cls, n: int) -> "LinearAction":
        gen = np.zeros((n + 1, n + 1), dtype=complex)
        exact = tuple(tuple(GaussianRational(0) for _ in range(n + 1))
                      for _ in range(n + 1))
        return cls(n=n, generators=(gen,), exact_generators=(exact,),
                   weights=(0,) * (n + 1))

    @property
    def k_dim(self) -> int:
        """Real dimension of the compact group = complex dimension of its
        complexification; the rank of the generator set."""
        flat = [np.concatenate([g.real.ravel(), g.imag.ravel()]) for g in self.generators]
        return _float_matrix_rank(flat, max(map(np.linalg.norm, self.generators), default=0.0))

    @cached_property
    def is_diagonal(self) -> bool:
        return all(np.max(np.abs(g - np.diag(np.diag(g)))) == 0.0
                   for g in self.generators)


def _coords(x) -> np.ndarray:
    if isinstance(x, ProjPoint):
        return x.to_complex()
    v = np.asarray(x, dtype=complex)
    if not np.any(v):
        raise ValueError("zero vector does not represent a projective point")
    return v


def moment_map(action: LinearAction, x) -> np.ndarray:
    """Moment-map value at x, one real component per generator.

    Component j is (x* A_j x) / (2 pi i |x|^2); anti-hermiticity of A_j
    makes the numerator purely imaginary, so the value is real, and the
    |x|^2 denominator makes it representative-independent.
    """
    return _moment_rows(action, _coords(x)[None, :])[0]


def _moment_rows(action: LinearAction, V: np.ndarray) -> np.ndarray:
    """moment_map of each row v of V, shape (rows, generators):
    Im(v* A_j v) / (2 pi |v|^2).  Elementwise products and row sums only, so
    a row's value does not depend on the rows stacked with it."""
    Av = np.add.reduce(np.array(action.generators) * V[:, None, None, :], axis=-1)
    num = np.add.reduce(V.conj()[:, None, :] * Av, axis=-1)
    nrm2 = np.add.reduce(V.real * V.real + V.imag * V.imag, axis=1)
    return num.imag / (2.0 * math.pi * nrm2[:, None])


def zero_level(action: LinearAction, points, tol: float) -> list:
    """The sampled zero level of the moment map: ||mu(x)|| <= tol."""
    points = list(points)
    V = np.array([_coords(p) for p in points]).reshape(len(points), action.n + 1)
    mu = np.linalg.norm(_moment_rows(action, V), axis=1)
    return [p for p, r in zip(points, mu) if r <= tol]


def _derivation(F: Polynomial, matrix_rows) -> Polynomial:
    """Derivative of F along the linear field x -> M x, exactly."""
    n = F.nvars
    out = Polynomial.zero(n)
    for i in range(n):
        dF = F.partial(i)
        if dF.is_zero:
            continue
        for j in range(n):
            c = matrix_rows[i][j]
            if c == 0:
                continue
            out = out + dF * Polynomial.variable(n, j) * c
    return out


def infinitesimal_invariance(F: Polynomial, action: LinearAction) -> bool:
    """Certify G-invariance of F: the derivation of F along every generator
    A_j vanishes as a polynomial, checked in exact arithmetic.  The
    derivation is complex-linear in the matrix, so this covers i*A_j and the
    whole complexified algebra too."""
    if action.exact_generators is None:
        raise InexactGeneratorsError(
            "exact generators required for a certified invariance check; "
            "use infinitesimal_invariance_numeric for a non-certified verdict")
    if F.nvars != action.n + 1:
        raise ValueError("polynomial/action dimension mismatch")
    return all(_derivation(F, gen).is_zero for gen in action.exact_generators)


def infinitesimal_invariance_numeric(F: Polynomial, action: LinearAction,
                                     tol: float = 1e-8, samples: int = 40,
                                     seed: int = 0) -> bool:
    """Non-certified fallback: check F(exp(tA) x) = F(x) on random samples."""
    rng = np.random.default_rng(seed)
    n = action.n + 1
    for _ in range(samples):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        base = F.evaluate(x)
        for g in action.generators:
            t = rng.uniform(-1.0, 1.0)
            moved = _expm(g * t) @ x
            if abs(F.evaluate(moved) - base) > tol * max(1.0, abs(base)):
                return False
    return True


def _expm(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(a)
    return vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)


@dataclass(frozen=True)
class InvariantSet:
    """Nonconstant homogeneous polynomials with exact invariance certificates."""

    polys: tuple
    certificates: tuple

    @classmethod
    def certified(cls, polys, action: LinearAction) -> "InvariantSet":
        polys = tuple(polys)
        for F in polys:
            if F.is_zero or F.degree() < 1:
                raise ValueError("invariants must be nonconstant")
            if not F.is_homogeneous():
                raise ValueError("invariants must be homogeneous")
        certs = tuple(infinitesimal_invariance(F, action) for F in polys)
        if not all(certs):
            bad = [str(F) for F, ok in zip(polys, certs) if not ok]
            raise ValueError(f"not invariant under the action: {bad}")
        return cls(polys=polys, certificates=certs)


def semistable(x, inv: InvariantSet, tol: float = 0.0) -> bool:
    """x is semistable (relative to the supplied invariants) when some
    nonconstant invariant does not vanish at it; scale-invariant test."""
    if not inv.polys:
        raise EmptyInvariantSetError("cannot decide semistability from an empty set")
    if isinstance(x, ProjPoint) and x.is_exact and tol == 0.0:
        return any(F.evaluate(x.coords) != 0 for F in inv.polys)
    return bool(np.any(_invariant_moduli(inv, _coords(x)[None, :]) > tol))


def _invariant_moduli(inv: InvariantSet, V: np.ndarray) -> np.ndarray:
    """|F(v)| / ||v||^deg F for each row v of V, one column per invariant."""
    nrm = np.linalg.norm(V, axis=1)
    return np.stack([np.abs(F.evaluate_array(V.T)) / nrm ** F.degree()
                     for F in inv.polys], axis=1)


def orbit_dim(action: LinearAction, x) -> int:
    """Complex dimension of the orbit of the complexified group through x:
    rank of the generator directions A_j x taken modulo the line C x, each
    at most max ||A_j|| ||x|| in size."""
    v = _coords(x)
    nrm2 = np.real(np.vdot(v, v))
    rows = []
    for g in action.generators:
        w = g @ v
        rows.append(w - (np.vdot(v, w) / nrm2) * v)
    scale = max(map(np.linalg.norm, action.generators), default=0.0) * math.sqrt(nrm2)
    return _float_matrix_rank(rows, scale)


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
    """For a diagonal one-parameter action: does the closure of the
    complexified orbit of x meet the zero level of the moment map?

    Along t = e^s the single moment component is increasing in s (it is the
    logarithmic derivative of a log-convex function), so it has a root
    exactly when the support weights have both signs, found by a safeguarded
    root search; both t -> 0 and t -> infinity limit points are also
    inspected.  Returns (met, witness) with the witness a ProjPoint or None.
    """
    weights, v = _one_param_weights(action), _coords(x)
    return _witness(weights, v, _orbit_search(weights, v[None, :], tol)[0])


def _one_param_weights(action: LinearAction) -> tuple:
    if not action.is_diagonal or action.weights is None or len(action.generators) != 1:
        raise NotDiagonalError("implemented for diagonal one-parameter actions only")
    return action.weights


@np.errstate(divide="ignore", invalid="ignore")
def _orbit_search(weights, V: np.ndarray, tol: float) -> np.ndarray:
    """Where the orbit closure of each row v of V meets the zero level: -inf or
    inf for the t -> 0 or t -> infinity limit (mu = extremal weight on the
    support / 2 pi; '0' first), s for e^(s w) . v, nan when it does not.
    Rows with support weights w_lo < 0 < w_hi have one root.  Newton steps
    (mu' = Var_p(w) / pi; the midpoint when a step leaves the bracket) narrow
    them in lockstep, for at most 200 evaluations, from the root of the two
    extremal weight classes (P = sum of |v_j|^2 over a class; exact when the
    nonzero support weights take two values).  The bracket: for s >= 0 the
    numerator sum w_j |v_j|^2 e^(2 s w_j) has positive part at least
    w_hi P_hi e^(2 s w_hi) and negative part at most its size N_- at s = 0,
    so mu >= 0 at s_hi = max(0, ln(N_- / (w_hi P_hi)) / (2 w_hi)); s_lo
    likewise from N_+ and |w_lo| P_lo."""
    w = np.array(weights, dtype=float)
    log_a = 2.0 * np.log(np.abs(V))  # -inf off the support
    w_lo, w_hi = _extremal_weights(weights, V)
    s = np.full(len(V), np.nan)
    s[np.abs(w_hi) / (2.0 * math.pi) <= tol] = np.inf
    s[np.abs(w_lo) / (2.0 * math.pi) <= tol] = -np.inf
    rows = np.flatnonzero(np.isnan(s) & (w_lo < 0) & (w_hi > 0))
    log_a, w_lo, w_hi = log_a[rows], w_lo[rows], w_hi[rows]
    log_wa = np.log(np.abs(w)) + log_a  # log |w_j| |v_j|^2
    # log w_hi P_hi, log |w_lo| P_lo, log N_+ and log N_-
    extremal, sides = w == np.array([w_hi, w_lo])[..., None], np.array([w > 0, w < 0])[:, None]
    (top, bottom), (n_plus, n_minus) = (_log_sum(np.where(m, log_wa, -np.inf))
                                        for m in (extremal, sides))
    lo = np.minimum(0.0, (n_plus - bottom) / (2.0 * w_lo))
    hi = np.maximum(0.0, (n_minus - top) / (2.0 * w_hi))
    x, evals = np.clip((bottom - top) / (2.0 * (w_hi - w_lo)), lo, hi), 0
    while len(rows) and evals < 200:
        evals += 1
        mu, slope = _ray_moment_map(log_a, x[:, None], w)
        done = np.abs(mu) <= tol
        if done.any():
            s[rows[done]] = x[done]
            rows, log_a, lo, hi, x, mu, slope = (
                a[~done] for a in (rows, log_a, lo, hi, x, mu, slope))
        up = mu > 0  # mu increases with s
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        step = x - mu / slope
        x = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    return s


def _extremal_weights(weights, V: np.ndarray):
    """Least and greatest weight on the support of each row of V: the
    weights whose coordinates survive as t -> 0 and t -> infinity."""
    w_live = np.where(V != 0, np.array(weights, dtype=float), np.nan)
    return np.fmin.reduce(w_live, axis=1), np.fmax.reduce(w_live, axis=1)


def _log_sum(e: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, for rows with a finite entry."""
    top = np.maximum.reduce(e, axis=-1, keepdims=True)
    return top[..., 0] + np.log(np.add.reduce(np.exp(e - top), axis=-1))


def _ray_moment_map(log_a: np.ndarray, s, w: np.ndarray):
    """mu at e^(s w) . v and d mu / ds over the last axis: sum w_j p_j / (2 pi
    sum p_j) and Var_p(w) / pi, p_j = |v_j|^2 e^(2 s w_j) (log |v_j|^2 given),
    the exponents shifted by their maximum."""
    e = log_a + 2.0 * s * w
    e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    p = np.exp(e, out=e)
    z = np.add.reduce(p, axis=-1)
    mean = (p @ w) / z
    return mean / (2.0 * math.pi), ((p @ (w * w)) / z - mean * mean) / math.pi


def _witness(weights, v: np.ndarray, s: float):
    """(met, witness) for the row v of _orbit_search and its result s."""
    if np.isnan(s):
        return False, None
    return True, ProjPoint(tuple(_witness_rows(weights, v[None, :], np.array([s]))[0]))


def _witness_rows(weights, V: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each row v of V where _orbit_search met the zero level: e^(s w) . v for
    finite s, the t -> 0 or t -> infinity limit for s = -inf or inf; rows with
    s = nan come back unchanged."""
    to_zero, to_inf = _limits(weights, V)
    moved = V * np.exp(np.where(np.isfinite(s), s, 0.0)[:, None] * np.array(weights, dtype=float))
    return np.where((s == -np.inf)[:, None], to_zero, np.where((s == np.inf)[:, None], to_inf, moved))


def is_stable(action: LinearAction, x, inv: InvariantSet,
              tol: float = 0.0) -> bool:
    """Stability for the shipped diagonal examples: full-dimensional orbit,
    semistable, and a closedness surrogate for one-parameter diagonal
    actions: both one-parameter limits leave the semistable locus (so the
    orbit is closed within it).  Neither limit can lie on the orbit itself:
    the support of a semistable point with a one-dimensional orbit carries
    two weights (one weight w != 0 makes every invariant vanish, w = 0 fixes
    the point), so each limit drops a coordinate.  General closedness is not
    decided here."""
    if not semistable(x, inv, tol) or orbit_dim(action, x) != action.k_dim:
        return False
    if action.is_diagonal and action.weights is not None and action.k_dim == 1:
        return not any(semistable(one_param_limit(action.weights, x, direction), inv, tol)
                       for direction in ("0", "inf"))
    return True


def k_orbit_equivalent(action: LinearAction, p: ProjPoint, q: ProjPoint,
                       tol: float = K_ORBIT_TOL) -> bool:
    """Equivalence of zero-level points under K times projective scaling.

    For a diagonal one-parameter action: q ~ p iff they share a zero
    pattern, their moduli agree up to one overall scale, and the phase
    profile differs by phi + theta * w_j for some phases phi, theta.
    """
    V = np.array([p.to_complex(), q.to_complex()])
    return bool(_k_orbit_matrix(_one_param_weights(action), V, tol)[0, 1])


def _k_orbit_matrix(weights, V: np.ndarray, tol: float) -> np.ndarray:
    """M[i, j]: row j of V is k_orbit_equivalent to row i.  Rows with
    different zero patterns never match.  Within a pattern, the moduli of
    row i scaled to row j's first support coordinate must agree with row j's
    to tol * max |v_j|, and the phases arg(v_j / v_i) on the support must be
    phi + theta w (mod 2 pi)."""
    M = np.zeros((len(V), len(V)), dtype=bool)
    patterns, group = np.unique(V != 0, axis=0, return_inverse=True)
    for g, live in enumerate(patterns):
        rows = np.flatnonzero(group == g)
        U = V[rows][:, live]
        R = np.abs(U)
        scaled = R[None, :, :1] / R[:, None, :1] * R[:, None, :]  # [i, j, l]
        match = np.max(np.abs(R[None] - scaled), axis=2) <= tol * np.max(R, axis=1)
        w = np.array(weights, dtype=float)[live]
        if np.ptp(w) > 0:
            # alpha_l = phi + theta w_l (mod 2 pi): solve from the extremal
            # pair, trying each branch of the 2-pi ambiguity, then verify all
            alpha = np.angle(U[None, :, :] / U[:, None, :])
            j_hi, j_lo = int(np.argmax(w)), int(np.argmin(w))
            span = w[j_hi] - w[j_lo]
            base = (alpha[..., j_hi] - alpha[..., j_lo]) / span
            phase = np.zeros_like(match)
            for branch in range(int(span)):
                theta = (base + 2.0 * math.pi * branch / span)[..., None]
                phi = alpha[..., j_lo:j_lo + 1] - theta * w[j_lo]
                resid = np.angle(np.exp(1j * (alpha - (phi + theta * w))))
                phase |= np.max(np.abs(resid), axis=2) <= tol
            match &= phase
        M[np.ix_(rows, rows)] = match
    return M


def count_k_orbit_classes(action: LinearAction, points,
                          tol: float = K_ORBIT_TOL) -> int:
    """Number of K-orbit equivalence classes among the given points."""
    weights = _one_param_weights(action)
    V = np.array([p.to_complex() for p in points], dtype=complex).reshape(-1, action.n + 1)
    return _greedy_count(_k_orbit_matrix(weights, V, tol))


def _greedy_count(M: np.ndarray) -> int:
    """Greedy class count over a match matrix: row j opens a class unless
    M[i, j] holds for a row i that opened one before it."""
    covered, count = np.zeros(len(M), dtype=bool), 0
    for j in range(len(M)):
        if not covered[j]:
            covered |= M[j]
            count += 1
    return count


def kirwan_correspondence_check(action: LinearAction, inv: InvariantSet | None,
                                n_samples: int = 200, tol: float = 1e-9,
                                seed: int = 0) -> dict:
    """Sample-based check of the semistable/zero-level correspondence.

    For each sampled point the semistability verdict (from the certified
    invariants) is compared with whether the orbit closure meets the zero
    level; the zero level must consist of semistable points only; finally
    the zero-level samples are grouped into K-orbit classes and the class
    count reported.  Diagonal one-parameter actions only.
    """
    weights = _one_param_weights(action)
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
    fixed = [ProjPoint(tuple(1.0 if i == j else 0.0 for i in range(n))) for j in range(n)]
    points = [ProjPoint(tuple(x)) for x in head] + fixed + [ProjPoint(tuple(x)) for x in tail]
    V = np.concatenate([head, np.eye(n), tail])

    semi = np.any(_invariant_moduli(inv, V) > 1e-12, axis=1)
    met = ~np.isnan(_orbit_search(weights, V, max(tol, 1e-10)))
    mismatches = int(np.count_nonzero(semi != met))
    mus = _moment_rows(action, V)
    limits = [[format_point(ProjPoint(row)) for row in lim] for lim in _limits(weights, V)]
    rows = [{"point": format_point(p), "semistable": a, "orbit_meets_zero_level": b,
             "mu": mu, "limit_t_to_0": l0, "limit_t_to_inf": linf}
            for p, a, b, mu, l0, linf in zip(points, semi.tolist(), met.tolist(), mus.tolist(),
                                              *limits)]

    zl = np.linalg.norm(mus, axis=1) <= 1e-7
    zl_phases = _zero_level_samples(action, rng, count=64)
    phase_V = np.array([p.to_complex() for p in zl_phases]).reshape(-1, n)
    zl_moduli = _invariant_moduli(inv, np.concatenate([V[zl], phase_V]))
    zero_all_semistable = bool(np.all(np.any(zl_moduli > 1e-12, axis=1)))
    classes = count_k_orbit_classes(action, zl_phases) if zl_phases else 0
    inv_classes = _invariant_value_classes(inv, zl_phases) if zl_phases else 0
    return {
        "n_samples": len(points),
        "samples": rows,
        "equivalence_holds": mismatches == 0,
        "mismatches": mismatches,
        "zero_level_sampled": int(np.count_nonzero(zl)),
        "zero_level_all_semistable": zero_all_semistable,
        "quotient_classes": classes,
        "invariant_value_classes": inv_classes,
        "quotient_matches_invariants": classes == inv_classes,
    }


def _invariant_value_classes(inv: InvariantSet, points, tol: float = 1e-6) -> int:
    """Classify points by the scale-normalized moduli of the invariants.

    |F(x)| / ||x||^deg F is constant on K-orbits and on projective classes,
    so the number of distinct value vectors lower-bounds the fiber count of
    the invariant-theory quotient on the sampled set."""
    vectors = _invariant_moduli(inv, np.array([p.to_complex() for p in points]))
    return _greedy_count(np.max(np.abs(vectors[:, None] - vectors[None]), axis=2) <= tol)


def _zero_level_samples(action: LinearAction, rng, count: int = 64) -> list:
    """Deterministic points on the moment zero level of a diagonal one-parameter
    action, found by the orbit search along random rays (drawn in blocks)."""
    weights, n = action.weights, action.n + 1
    out, tries = [], 0
    while len(out) < count and tries < 50 * count:
        block = min(count - len(out), 50 * count - tries)
        tries += block
        X = _rays(rng, block, n)
        s = _orbit_search(weights, X, 1e-12)
        W = _witness_rows(weights, X, s)
        keep = ~np.isnan(s) & (np.linalg.norm(_moment_rows(action, W), axis=1) <= 1e-10)
        out += [ProjPoint(tuple(x)) for x in W[keep]]
    return out


def _rays(rng, count: int, n: int) -> np.ndarray:
    """count random points of C^n, real and imaginary parts standard normal,
    drawn as count (re, im) pairs of n normals from one stream."""
    ri = rng.normal(size=(count, 2, n))
    return ri[:, 0] + 1j * ri[:, 1]
