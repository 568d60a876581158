"""Independent-route checkers for every benchmark operation.

Each ``check_*`` function takes the inputs of one operation and the output
the program produced, and returns ``None`` when the output agrees with an
independent route or a one-line reason when it does not.  The routes are:

* Berezin-Toeplitz on P^1: the level-m Toeplitz operators of the sphere
  coordinates are scaled spin matrices, T_{x_i} = 2 J_i / (m+2)
  (Bordemann-Meinrenken-Schlichenmaier, CMP 165, 1994), which fixes the
  spectrum, the norm m/(m+2), the Dirac residual 4m/(m+2)^2 of a cyclic
  pair and T_{x1 x2} = 2 (J1 J2 + J2 J1) / ((m+2)(m+3)).  Rotating the
  coordinate frame conjugates all of them by one unitary, so the same
  numbers hold for every right-handed orthonormal frame.
* Plane cubics, Hilbert functions and singular points: exact rational
  arithmetic written here, independent of the program's polynomial layer.
* Weierstrass tori: truncated lattice sums in plain numpy.
* Moment maps of diagonal circle actions: the closed form
  mu(x) = sum w_j |x_j|^2 / (2 pi |x|^2) and the convex-hull criterion for
  the orbit closure meeting the zero level.

Nothing here imports the program, so the checkers keep working when the
program's internals are refactored.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

#: absolute tolerance for Berezin-Toeplitz closed forms; correct levels agree
#: to ~1e-13, the broken dense assembly at m >= 96 misses by >= 1e-4
BT_TOL = 1e-9

#: the program's own pass threshold for the Tuynman identity and the torus ODE
PROGRAM_RESIDUAL_TOL = 1e-6

#: relative tolerance for a curve point to lie on its cubic
CURVE_REL_TOL = 1e-9

#: relative tolerance of the wp / wp' comparison against the truncated
#: lattice sums, whose own truncation error is ~1e-4 at the cutoff used
LATTICE_REL_TOL = 5e-3
LATTICE_CUTOFF = 60
#: torus samples per embedding checked against the lattice sums
LATTICE_SAMPLES = 4


# ---------------------------------------------------------------------------
# parsing of command-line output
# ---------------------------------------------------------------------------

def parse_csv(text: str):
    """Split the CLI's CSV into (trailer dict, header, rows of strings).

    Leading and trailing '# key = value' lines both land in the dict.
    """
    comments, header, rows = {}, None, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            comments[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def parse_point(text: str) -> np.ndarray:
    """Coordinates of a printed projective point '(a : b : ...)'."""
    return np.array([complex(c.strip()) for c in text.strip()[1:-1].split(":")])


# ---------------------------------------------------------------------------
# Berezin-Toeplitz closed forms
# ---------------------------------------------------------------------------

def spin_matrices(m: int):
    """J1, J2, J3 of spin m/2 in the basis J3 = diag(m/2, ..., -m/2)."""
    j = m / 2.0
    mu = j - np.arange(m + 1)
    jp = np.zeros((m + 1, m + 1))
    for k in range(1, m + 1):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - mu[k] * (mu[k] + 1))
    return (jp + jp.T) / 2.0, (jp - jp.T) / 2j, np.diag(mu).astype(complex)


def toeplitz_spectrum(m: int) -> np.ndarray:
    """Eigenvalues of T_{x_i} = 2 J_i / (m+2), ascending."""
    return np.sort(2.0 * (m / 2.0 - np.arange(m + 1)) / (m + 2))


def norm_closed_form(m: int) -> float:
    return m / (m + 2.0)


def dirac_closed_form(m: int) -> float:
    return 4.0 * m / (m + 2.0) ** 2


def product_closed_form(m: int) -> float:
    """|| T_{x1} T_{x2} - T_{x1 x2} || from the spin matrices, by SVD."""
    j1, j2, _ = spin_matrices(m)
    tf, tg = 2 * j1 / (m + 2), 2 * j2 / (m + 2)
    tfg = 2 * (j1 @ j2 + j2 @ j1) / ((m + 2) * (m + 3))
    return float(np.linalg.norm(tf @ tg - tfg, 2))


def _close(what: str, got: float, want: float, tol: float = BT_TOL):
    if not np.isfinite(got) or abs(got - want) > tol:
        return f"{what} = {got!r}, closed form {want!r}"
    return None


def check_norm(m: int, value: float):
    return _close(f"||T_x3|| at m={m}", value, norm_closed_form(m))


def check_spectrum(m: int, mat: np.ndarray):
    mat = np.asarray(mat)
    if mat.shape != (m + 1, m + 1) or not np.all(np.isfinite(mat)):
        return f"T at m={m} has shape {mat.shape} or non-finite entries"
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > BT_TOL:
        return f"T at m={m} is not hermitian (defect {herm:.3e})"
    ev = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    err = float(np.max(np.abs(ev - toeplitz_spectrum(m))))
    if err > BT_TOL:
        return f"spectrum at m={m} off 2J/(m+2) by {err:.3e}"
    return None


def check_dirac(m: int, value: float):
    return _close(f"Dirac residual at m={m}", value, dirac_closed_form(m))


def check_product(m: int, value: float, reference: float | None = None):
    ref = product_closed_form(m) if reference is None else reference
    return _close(f"product residual at m={m}", value, ref)


def check_tuynman(m: int, value: float):
    if not np.isfinite(value) or value > PROGRAM_RESIDUAL_TOL:
        return f"Tuynman residual at m={m} = {value!r} > {PROGRAM_RESIDUAL_TOL}"
    return None


def z_rotation(phi: float) -> np.ndarray:
    """Rotation of the sphere coordinates about the x3 axis (det +1)."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# plane cubics y^2 = 4 x^3 - g2 x - g3 and their singular points
# ---------------------------------------------------------------------------

def cubic_values(g2, g3, x, y):
    """Affine Weierstrass cubic y^2 - 4x^3 + g2 x + g3 and its scale."""
    g2, g3 = float(g2), float(g3)
    val = y * y - 4.0 * x ** 3 + g2 * x + g3
    scale = y * y + 4.0 * np.abs(x) ** 3 + abs(g2) * np.abs(x) + abs(g3)
    return val, scale


def curve_crossings(g2, g3, xs, ys) -> int:
    """Number of points the grid scan should report: grid values that are
    exactly zero plus sign changes along grid lines, both directions."""
    X, Y = np.meshgrid(np.asarray(xs), np.asarray(ys), indexing="ij")
    v, _ = cubic_values(g2, g3, X, Y)
    neg = v < 0

    def along(vals, negs):
        first = vals[..., :-1]
        change = negs[..., :-1] != negs[..., 1:]
        return int(np.sum(first == 0.0) + np.sum((first != 0.0) & change))

    return along(v, neg) + along(v.T, neg.T)


def check_curve_points(g2, g3, points, expected_count: int | None = None):
    if not points:
        return "no curve points reported"
    pts = np.asarray(points, dtype=float)
    val, scale = cubic_values(g2, g3, pts[:, 0], pts[:, 1])
    bad = np.abs(val) > CURVE_REL_TOL * np.maximum(scale, 1.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"point {tuple(pts[i])} misses the cubic by {val[i]:.3e}"
    if expected_count is not None and abs(len(pts) - expected_count) > 2:
        return f"{len(pts)} curve points, grid scan expects {expected_count}"
    return None


def discriminant(g2: Fraction, g3: Fraction) -> Fraction:
    return g2 ** 3 - 27 * g3 ** 2


def expected_class(g2: Fraction, g3: Fraction) -> str:
    if discriminant(g2, g3) != 0:
        return "smooth"
    return "cuspidal" if g2 == 0 and g3 == 0 else "nodal"


def cubic_gradient(g2: Fraction, g3: Fraction, p):
    """Exact value and gradient of Y^2 Z - 4 X^3 + g2 X Z^2 + g3 Z^3."""
    X, Y, Z = p
    val = Y * Y * Z - 4 * X ** 3 + g2 * X * Z * Z + g3 * Z ** 3
    grad = (-12 * X * X + g2 * Z * Z, 2 * Y * Z,
            Y * Y + 2 * g2 * X * Z + 3 * g3 * Z * Z)
    return val, grad


def check_classify(g2: Fraction, g3: Fraction, verdict: str):
    want = expected_class(g2, g3)
    if verdict != want:
        return f"cubic g2={g2}, g3={g3} classified {verdict}, expected {want}"
    return None


def check_singular(g2: Fraction, g3: Fraction, point, singular: bool):
    """Exact verdict from the gradient; a singular point needs disc = 0."""
    val, grad = cubic_gradient(g2, g3, point)
    if val != 0:
        return f"test point {point} is not on the cubic"
    want = all(g == 0 for g in grad)
    if want and discriminant(g2, g3) != 0:
        return f"singular point on a cubic with nonzero discriminant"
    if bool(singular) != want:
        return f"point {tuple(map(str, point))}: singular={singular}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# graded coordinate rings
# ---------------------------------------------------------------------------

def hypersurface_hilbert(nvars: int, degree: int, m: int) -> int:
    """dim_m K[X_0..X_n]/(f) = C(n+m, n) - C(n+m-d, n), counted directly."""
    n = nvars - 1
    full = math.comb(n + m, n) if m >= 0 else 0
    cut = math.comb(n + m - degree, n) if m - degree >= 0 else 0
    return full - cut


def check_hilbert(nvars: int, degree: int, m: int, hf: int, basis):
    want = hypersurface_hilbert(nvars, degree, m)
    if hf != want:
        return f"hilbert_function = {hf}, expected {want} (n={nvars}, d={degree}, m={m})"
    if basis is not None:
        monos = [tuple(b) for b in basis]
        if len(monos) != hf:
            return f"{len(monos)} basis monomials but hilbert_function = {hf}"
        if len(set(monos)) != len(monos) or any(sum(b) != m or len(b) != nvars
                                                 for b in monos):
            return "graded basis has repeated or wrong-degree monomials"
    return None


def check_hilbert_table(nvars: int, degrees, rows, variety_dim=None):
    """Rows (m, dim) of the 'hilbert' command for a complete intersection."""
    n = nvars - 1
    for m, dim in rows:
        want = 0
        for k in range(len(degrees) + 1):
            for sub in combinations(degrees, k):
                top = n + m - sum(sub)
                if top >= n:
                    want += (-1) ** k * math.comb(top, n)
        if dim != want:
            return f"hilbert row m={m}: {dim}, expected {want}"
    if variety_dim is not None and variety_dim != n - len(degrees):
        return f"variety_dim = {variety_dim}, expected {n - len(degrees)}"
    return None


# ---------------------------------------------------------------------------
# Weierstrass tori by truncated lattice sums
# ---------------------------------------------------------------------------

def lattice_points(tau: complex, N: int = LATTICE_CUTOFF) -> np.ndarray:
    r = np.arange(-N, N + 1)
    a, b = np.meshgrid(r, r, indexing="ij")
    w = a + b * tau
    return w[(a != 0) | (b != 0)]


def wp_lattice(tau: complex, z: complex, w: np.ndarray):
    """(wp(z), wp'(z)) by symmetric square truncation of the lattice sums."""
    p = 1.0 / z ** 2 + np.sum((z - w) ** -2.0 - w ** -2.0)
    pp = -2.0 * (1.0 / z ** 3 + np.sum((z - w) ** -3.0))
    return complex(p), complex(pp)


def check_torus(tau: complex, rows, rc: int):
    """Rows (z_re, z_im, X, Y, Z, residual) of 'weierstrass-embed'.

    The program's own verdict (residual <= 1e-6, exit 0) must hold, and
    the first :data:`LATTICE_SAMPLES` points must match wp and wp' from the
    lattice sums.  Returns (reason or None, honest) where honest marks a
    failure that the program reported itself with exit code 1.
    """
    if not rows:
        return "no torus samples reported", False
    res = np.array([float(r[5]) for r in rows])
    worst = float(np.max(res))
    w = lattice_points(tau)
    for r in rows[:LATTICE_SAMPLES]:
        z = complex(float(r[0]), float(r[1]))
        X, Y = complex(r[2]), complex(r[3])
        p, pp = wp_lattice(tau, z, w)
        if (abs(X - p) > LATTICE_REL_TOL * max(1.0, abs(p))
                or abs(Y - pp) > LATTICE_REL_TOL * max(1.0, abs(pp))):
            return f"tau={tau}: (X, Y) at z={z} off the lattice route ({p}, {pp})", False
    if worst > PROGRAM_RESIDUAL_TOL:
        reason = f"tau={tau}: max ODE residual {worst:.3e} > {PROGRAM_RESIDUAL_TOL}"
        return reason, rc == 1
    if rc != 0:
        return f"tau={tau}: exit {rc} with every residual within tolerance", False
    return None, False


# ---------------------------------------------------------------------------
# moment maps of diagonal circle actions
# ---------------------------------------------------------------------------

def moment_value(weights, x) -> float:
    x = np.asarray(x, dtype=complex)
    a = np.abs(x) ** 2
    return float(np.dot(np.asarray(weights, dtype=float), a) / (2 * math.pi * a.sum()))


def orbit_meets_zero(weights, x) -> bool:
    """0 lies in the convex hull of the weights on the support of x."""
    live = [w for w, c in zip(weights, x) if c != 0]
    return min(live) <= 0 <= max(live)


def check_moment_report(weights, payload: dict, rc: int):
    """JSON of the 'moment-map' command."""
    report = payload.get("report", {})
    samples = report.get("samples")
    if not samples:
        return "moment-map report has no samples"
    for s in samples:
        x = parse_point(s["point"])
        mu = moment_value(weights, x)
        if abs(s["mu"][0] - mu) > 1e-12 * max(1.0, abs(mu)):
            return f"mu at {s['point']} = {s['mu'][0]!r}, closed form {mu!r}"
        met = orbit_meets_zero(weights, x)
        if s["orbit_meets_zero_level"] != met or s["semistable"] != met:
            return f"verdicts at {s['point']} disagree with the weight hull ({met})"
    if not (report.get("equivalence_holds") and report.get("zero_level_all_semistable")):
        return "moment-map report does not confirm the correspondence"
    if rc != 0:
        return f"moment-map exit {rc} on a consistent report"
    return None


def check_zero_level(weights, x, met: bool, witness, tol: float):
    """One orbit search: verdict from the weight hull, witness recomputed."""
    want = orbit_meets_zero(weights, x)
    if met != want:
        return f"orbit through {x} meets zero level: {met}, expected {want}"
    if met:
        if witness is None:
            return "orbit meets the zero level but no witness was returned"
        mu = moment_value(weights, witness)
        if abs(mu) > max(tol, 1e-9):
            return f"witness has mu = {mu:.3e}"
    return None
