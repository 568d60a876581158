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
from .projgeo import ProjPoint, format_point

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
        flat = np.array([np.concatenate([g.real.ravel(), g.imag.ravel()])
                         for g in self.generators])
        if flat.size == 0 or not np.any(flat):
            return 0
        s = np.linalg.svd(flat, compute_uv=False)
        return int(np.sum(s > 1e-9 * s[0]))

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
    v = _coords(x)
    nrm2 = float(np.real(np.vdot(v, v)))
    out = np.empty(len(action.generators))
    for j, g in enumerate(action.generators):
        val = np.vdot(v, g @ v) / (2j * math.pi * nrm2)
        out[j] = float(np.real(val))
    return out


def zero_level(action: LinearAction, points, tol: float) -> list:
    """The sampled zero level of the moment map: ||mu(x)|| <= tol."""
    return [p for p in points
            if float(np.linalg.norm(moment_map(action, p))) <= tol]


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
            if c == GaussianRational(0):
                continue
            out = out + dF * Polynomial.variable(n, j) * c
    return out


def infinitesimal_invariance(F: Polynomial, action: LinearAction) -> bool:
    """Certify G-invariance of F: the derivation of F along every generator
    A_j and along i*A_j (covering the complexified algebra) vanishes as a
    polynomial, checked in exact arithmetic."""
    if action.exact_generators is None:
        raise InexactGeneratorsError(
            "exact generators required for a certified invariance check; "
            "use infinitesimal_invariance_numeric for a non-certified verdict")
    if F.nvars != action.n + 1:
        raise ValueError("polynomial/action dimension mismatch")
    for gen in action.exact_generators:
        d = _derivation(F, gen)
        if not d.is_zero:
            return False
        gen_i = tuple(tuple(I_UNIT * c for c in row) for row in gen)
        if not _derivation(F, gen_i).is_zero:
            return False
    return True


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
        return any(_nonzero_exact(F.evaluate(x.coords)) for F in inv.polys)
    return bool(np.any(_invariant_moduli(inv, _coords(x)[None, :]) > tol))


def _invariant_moduli(inv: InvariantSet, V: np.ndarray) -> np.ndarray:
    """|F(v)| / ||v||^deg F for each row v of V, one column per invariant."""
    nrm = np.linalg.norm(V, axis=1)
    return np.stack([np.abs(F.evaluate_array(V.T)) / nrm ** F.degree()
                     for F in inv.polys], axis=1)


def _nonzero_exact(val) -> bool:
    return GaussianRational.of(val) != GaussianRational(0)


def orbit_dim(action: LinearAction, x, rtol: float = 1e-9) -> int:
    """Complex dimension of the orbit of the complexified group through x:
    rank of the generator directions A_j x taken modulo the line C x."""
    v = _coords(x)
    nrm2 = np.real(np.vdot(v, v))
    rows = []
    for g in action.generators:
        w = g @ v
        w = w - (np.vdot(v, w) / nrm2) * v
        rows.append(w)
    a = np.array(rows)
    if not np.any(a):
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > rtol * s[0]))


def one_param_limit(weights, x, direction: str) -> ProjPoint:
    """Limit of (t^w0 x0 : ... : t^wn xn) as t -> 0 or t -> infinity.

    Coordinates attaining the extremal weight among the nonzero ones
    survive (minimal weight for t -> 0, maximal for t -> infinity); the
    rest vanish in the limit.  The result is a fixed point of the subgroup.
    """
    if direction not in ("0", "inf", "t->0", "t->inf"):
        raise ValueError("direction must be one of '0', 'inf'")
    to_zero = direction in ("0", "t->0")
    v = _coords(x)
    weights = tuple(int(w) for w in weights)
    live = [j for j in range(len(v)) if v[j] != 0]
    extremal = min(weights[j] for j in live) if to_zero else max(weights[j] for j in live)
    coords = tuple(v[j] if (j in live and weights[j] == extremal) else 0.0
                   for j in range(len(v)))
    return ProjPoint(coords)


def orbit_meets_zero_level(action: LinearAction, x, tol: float = 1e-9,
                           log_t_range: float = 14.0, samples: int = 60):
    """For a diagonal one-parameter action: does the closure of the
    complexified orbit of x meet the zero level of the moment map?

    Along t = e^s the single moment component is monotone in s (it is the
    logarithmic derivative of a log-convex function), so a sign change plus
    a safeguarded root search decides the question; both t -> 0 and
    t -> infinity limit points are also inspected.  Returns (met, witness)
    with the witness a ProjPoint or None.
    """
    weights, v = _one_param_weights(action), _coords(x)
    return _witness(weights, v, _orbit_search(weights, v[None, :], tol, log_t_range, samples)[0])


def _one_param_weights(action: LinearAction) -> tuple:
    if not action.is_diagonal or action.weights is None or len(action.generators) != 1:
        raise NotDiagonalError("orbit search implemented for diagonal one-parameter actions only")
    return action.weights


@np.errstate(divide="ignore", invalid="ignore")
def _orbit_search(weights, V: np.ndarray, tol: float, log_t_range: float = 14.0,
                  samples: int = 60) -> np.ndarray:
    """Where the orbit closure of each row v of V meets the zero level: -inf or
    inf for the t -> 0 or t -> infinity limit (mu = extremal weight on the
    support / 2 pi; '0' first), s for e^(s w) . v, nan when it does not.  The
    first grid hit wins, else the first sign change, narrowed in lockstep by
    Newton steps (mu' = Var_p(w) / pi; the midpoint when a step leaves the
    bracket) for at most 200 evaluations."""
    w = np.array(weights, dtype=float)
    log_a = 2.0 * np.log(np.abs(V))  # -inf off the support
    w_lo, w_hi = _extremal_weights(weights, V)
    s = np.full(len(V), np.nan)
    s[np.abs(w_hi) / (2.0 * math.pi) <= tol] = np.inf
    s[np.abs(w_lo) / (2.0 * math.pi) <= tol] = -np.inf
    ss = np.linspace(-log_t_range, log_t_range, samples)
    vals = _ray_moment_map(log_a[:, None, :], ss[:, None], w)[0]
    hit, todo = np.abs(vals) <= tol, np.isnan(s)  # not decided by a limit
    found = todo & hit.any(axis=1)
    s[found] = ss[hit[found].argmax(axis=1)]
    sign_change = vals[:, :-1] * vals[:, 1:] < 0
    rows = np.flatnonzero(todo & ~found & sign_change.any(axis=1))
    k = sign_change[rows].argmax(axis=1)  # first bracket only
    lo, hi, log_a = ss[k], ss[k + 1], log_a[rows]
    x, evals = 0.5 * (lo + hi), 0
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
    if np.isinf(s):
        return True, one_param_limit(weights, v, "0" if s < 0 else "inf")
    return True, ProjPoint(tuple(v * np.exp(s * np.array(weights, dtype=float))))


def is_stable(action: LinearAction, x, inv: InvariantSet,
              tol: float = 0.0) -> bool:
    """Stability for the shipped diagonal examples: full-dimensional orbit,
    semistable, and a closedness surrogate for one-parameter diagonal
    actions: each one-parameter limit either lies on the orbit itself or
    leaves the semistable locus (so the orbit is closed within it).
    General closedness is not decided here."""
    if not semistable(x, inv, tol):
        return False
    if orbit_dim(action, x) != action.k_dim:
        return False
    if action.is_diagonal and action.weights is not None and action.k_dim == 1:
        for direction in ("0", "inf"):
            p = one_param_limit(action.weights, x, direction)
            if _in_one_param_orbit(action.weights, x, p):
                continue
            if semistable(p, inv, tol):
                return False
    return True


def _in_one_param_orbit(weights, x, p: ProjPoint, tol: float = 1e-9) -> bool:
    """Whether p lies on the diagonal orbit {t . x} (real t > 0 suffices for
    the closedness surrogate)."""
    v = _coords(x)
    u = p.to_complex()
    live_v = v != 0
    if not np.array_equal(live_v, u != 0):
        return False
    # same zero pattern: candidate scalings come from any live coordinate
    w = np.array(weights, dtype=float)
    idx = np.flatnonzero(live_v)
    ratios = np.abs(u[idx] / v[idx])
    spread = np.ptp(w[idx])
    if spread == 0:
        return True  # subgroup fixes the support; orbit is the point itself
    # solve |t|^(w_j - w_k) from two distinct weights, then verify all
    j = idx[np.argmax(w[idx])]
    k = idx[np.argmin(w[idx])]
    t_mag = (ratios[np.argmax(w[idx])] / ratios[np.argmin(w[idx])]) ** (1.0 / (w[j] - w[k]))
    predicted = ratios[0] * (t_mag ** (w[idx] - w[idx][0]))
    return bool(np.max(np.abs(predicted - ratios)) <= tol * np.max(ratios))


def k_orbit_equivalent(action: LinearAction, p: ProjPoint, q: ProjPoint,
                       tol: float = K_ORBIT_TOL) -> bool:
    """Equivalence of zero-level points under K times projective scaling.

    For a diagonal one-parameter action: q ~ p iff they share a zero
    pattern, their moduli agree up to one overall scale, and the phase
    profile differs by phi + theta * w_j for some phases phi, theta.
    """
    if not action.is_diagonal or action.weights is None:
        raise NotDiagonalError("K-orbit grouping implemented for diagonal actions")
    return _k_orbit_match(action.weights, p.to_complex()[None, :], q, tol)


def _k_orbit_match(weights, reps: np.ndarray, q: ProjPoint, tol: float) -> bool:
    """Whether q is k_orbit_equivalent to some row of reps, in array ops."""
    v = q.to_complex()
    idx = np.flatnonzero(v)
    u = reps[np.all((reps != 0) == (v != 0), axis=1)][:, idx]
    ru, rv = np.abs(u), np.abs(v[idx])
    u = u[np.max(np.abs(rv - rv[0] / ru[:, :1] * ru), axis=1) <= tol * np.max(rv)]
    w = np.array([weights[j] for j in idx], dtype=float)
    if len(u) == 0 or len(idx) == 1 or np.ptp(w) == 0:
        return len(u) > 0
    alpha = np.angle(v[idx] / u)
    # alpha_j = phi + theta w_j (mod 2 pi): solve from the extremal pair,
    # trying each branch of the 2-pi ambiguity, then verify all entries
    j_hi, j_lo = int(np.argmax(w)), int(np.argmin(w))
    span = w[j_hi] - w[j_lo]
    base = (alpha[:, j_hi] - alpha[:, j_lo]) / span
    for branch in range(int(span)):
        theta = (base + 2.0 * math.pi * branch / span)[:, None]
        phi = alpha[:, j_lo:j_lo + 1] - theta * w[j_lo]
        resid = np.angle(np.exp(1j * (alpha - (phi + theta * w))))
        if np.any(np.max(np.abs(resid), axis=1) <= tol):
            return True
    return False


def count_k_orbit_classes(action: LinearAction, points,
                          tol: float = K_ORBIT_TOL) -> int:
    """Number of K-orbit equivalence classes among the given points."""
    if not action.is_diagonal or action.weights is None:
        raise NotDiagonalError("K-orbit grouping implemented for diagonal actions")
    reps = np.empty((0, action.n + 1), dtype=complex)
    for p in points:
        if not _k_orbit_match(action.weights, reps, p, tol):
            reps = np.vstack([reps, p.to_complex()])
    return len(reps)


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
    if not action.is_diagonal or action.weights is None:
        raise NotDiagonalError("correspondence check needs a diagonal action")
    if inv is None or not inv.polys:
        return {
            "n_samples": 0,
            "verdict": "no nonconstant certified invariants: semistable locus "
                       "not determined",
            "equivalence_holds": None,
        }
    rng = np.random.default_rng(seed)
    n = action.n + 1
    points = [ProjPoint(tuple(rng.normal(size=n) + 1j * rng.normal(size=n)))
              for _ in range(max(0, n_samples - 2 * n))]
    for j in range(n):  # include every coordinate fixed point
        points.append(ProjPoint(tuple(1.0 if i == j else 0.0 for i in range(n))))
    while len(points) < n_samples:
        points.append(ProjPoint(tuple(rng.normal(size=n) + 1j * rng.normal(size=n))))

    weights = _one_param_weights(action)
    V = np.array([p.to_complex() for p in points])
    semi = np.any(_invariant_moduli(inv, V) > 1e-12, axis=1)
    met = ~np.isnan(_orbit_search(weights, V, max(tol, 1e-10)))
    mismatches = int(np.count_nonzero(semi != met))
    mus = [moment_map(action, p) for p in points]
    # one_param_limit of every row: the coordinates at the extremal weights
    w = np.array(weights, dtype=float)
    limits = [[format_point(ProjPoint(row)) for row in np.where(w == ext[:, None], V, 0.0)]
              for ext in _extremal_weights(weights, V)]
    rows = [{"point": format_point(p), "semistable": bool(a), "orbit_meets_zero_level": bool(b),
             "mu": [float(c) for c in mu], "limit_t_to_0": l0, "limit_t_to_inf": linf}
            for p, a, b, mu, l0, linf in zip(points, semi, met, mus, *limits)]

    zl = [p for p, mu in zip(points, mus) if float(np.linalg.norm(mu)) <= 1e-7]
    zl_phases = _zero_level_samples(action, rng, count=64)
    zl_moduli = _invariant_moduli(
        inv, np.array([p.to_complex() for p in zl + zl_phases]).reshape(-1, n))
    zero_all_semistable = bool(np.all(np.any(zl_moduli > 1e-12, axis=1)))
    classes = count_k_orbit_classes(action, zl_phases) if zl_phases else 0
    inv_classes = _invariant_value_classes(inv, zl_phases) if zl_phases else 0
    return {
        "n_samples": len(points),
        "samples": rows,
        "equivalence_holds": mismatches == 0,
        "mismatches": mismatches,
        "zero_level_sampled": len(zl),
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
    classes = vectors[:0]
    for vec in vectors:  # greedy: the first match keeps a vector out
        if not np.any(np.max(np.abs(classes - vec), axis=1) <= tol):
            classes = np.vstack([classes, vec])
    return len(classes)


def _zero_level_samples(action: LinearAction, rng, count: int = 64) -> list:
    """Deterministic points on the moment zero level of a diagonal one-parameter
    action, found by the orbit search along random rays (drawn in blocks)."""
    weights, n = action.weights, action.n + 1
    out, tries = [], 0
    while len(out) < count and tries < 50 * count:
        block = min(count - len(out), 50 * count - tries)
        tries += block
        ri = rng.normal(size=(block, 2, n))
        X = ri[:, 0] + 1j * ri[:, 1]
        for x, s in zip(X, _orbit_search(weights, X, 1e-12)):
            met, witness = _witness(weights, x, s)
            if met and float(np.linalg.norm(moment_map(action, witness))) <= 1e-10:
                out.append(witness)
    return out
