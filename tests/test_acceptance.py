"""Acceptance suite: one test per top-level guarantee, each printing a
single PASS/FAIL line.  Tolerances are pinned here and nowhere else.

The two first-order Berezin-Toeplitz checks for the coordinate pair
(x1, x2) assert the exact finite-level values, not endpoint ratios.  The
level-m operators are scaled spin matrices, T_{x1,x2,x3} = 2/(m+2) (J1, -J2,
J3), and {x1, x2} = 2 x3, so the commutator residual
||m i [T_x1, T_x2] - T_{{x1,x2}}|| is exactly 4m/(m+2)^2: the O(1/m) rate
made exact, with m r(m) rising to 4.  The closed form is derived here from
the spin commutation relations alone, with no quadrature and nothing read
from the package, so it is an independent route: every level must match it
to 1e-9, and the log-log slope must lie in the first-order window.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from projquant.btquant import (
    build_quadrature,
    curvature_residual,
    dirac_table,
    fit_loglog_slope,
    norm_asymptotics,
    op_norm,
    poisson_function,
    product_table,
    standard_family,
    toeplitz,
    tuynman_residual,
)
from projquant.cli import main as cli_main
from projquant.coordring import (
    GradedRingPresentation,
    hilbert_function,
    hilbert_polynomial_degree,
    variety_dim,
)
from projquant.gitquot import (
    InvariantSet,
    LinearAction,
    infinitesimal_invariance,
    kirwan_correspondence_check,
)
from projquant.poly import Polynomial, monomials_of_degree
from projquant.projgeo import (
    CubicClass,
    ProjPoint,
    VarietyPresentation,
    cubic_classify,
    is_on_variety,
    is_singular_point,
    rank_at,
    weierstrass_cubic,
    weierstrass_cubic_singular_points,
    zariski_tangent_dim,
)
from projquant.weierstrass import Lattice, eisenstein, embed, ode_residual

F = Fraction
LEVELS = [4, 8, 16, 32, 64]
FAMILY = standard_family()


def _spin_model_residual(m: int) -> float:
    """Closed-form ||m i [T_x1, T_x2] - T_{2 x3}|| at level m.

    With s = 2/(m+2) and [J1, J2] = i J3, m i [s J1, -s J2] = m s^2 J3, so
    the residual is |m s^2 - 2 s| ||J3|| = 8/(m+2)^2 * m/2.
    """
    return 4.0 * m / (m + 2) ** 2


def _closed_form_failures(label: str, levels, values, tol: float = 1e-9) -> list:
    """Per-level deviations from the spin-model residual; names the worst."""
    devs = [(abs(v - _spin_model_residual(m)), m, v) for m, v in zip(levels, values)]
    worst, m_worst, v_worst = max(devs)
    if worst <= tol:
        return []
    return [f"{label} at m={m_worst} is {v_worst!r}, closed form "
            f"4m/(m+2)^2 = {_spin_model_residual(m_worst)!r} "
            f"(deviation {worst:.3g} > {tol:g})"]


def report(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}" + (f" -- {failures}" if failures else ""))
    assert not failures, f"{name}: {failures}"


def test_toeplitz_norm_saturation():
    t0 = time.perf_counter()
    failures = []
    quad = build_quadrature(64)
    x3 = FAMILY["x3"]
    data = norm_asymptotics(x3, LEVELS, quad=quad)
    for m, nrm, _ in data["rows"]:
        if abs(nrm - m / (m + 2)) > 1e-8:
            failures.append(f"norm at m={m}: {nrm}")
    if not (-1.15 <= data["gap_slope"] <= -0.85):
        failures.append(f"gap slope {data['gap_slope']}")
    for name, f in FAMILY.items():
        sup = f.sup_norm()
        for m in LEVELS:
            nrm = op_norm(toeplitz(f, m, quad=quad))
            if nrm > sup + 1e-8:
                failures.append(f"upper bound {name} m={m}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report("toeplitz norm saturation (rate -1, bound sup|f|)", failures)


def test_commutator_poisson_residual():
    t0 = time.perf_counter()
    failures = []
    quad = build_quadrature(64)
    table = dirac_table(FAMILY["x1"], FAMILY["x2"], LEVELS, quad=quad)
    if not (-1.3 <= table.slope <= -0.7):
        failures.append(f"slope {table.slope}")
    failures += _closed_form_failures("residual", LEVELS, table.values)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report("commutator vs poisson bracket residual decay", failures)


def test_product_residual_rate():
    failures = []
    quad = build_quadrature(64)
    table = product_table(FAMILY["x3"], FAMILY["x3"], LEVELS, quad=quad)
    if not (-1.3 <= table.slope <= -0.7):
        failures.append(f"slope {table.slope}")
    report("operator product vs pointwise product residual rate", failures)


def test_star_product_first_order_antisymmetry():
    # with M1 = m (T_f T_g - T_{fg}) and its (f,g)-swap, the antisymmetric
    # part M1 - M1_swap - T_{-i{f,g}} = m [T_f, T_g] - T_{-i{f,g}} is -i times
    # the commutator residual matrix, so it has the same closed-form norm;
    # it is formed here from the operators, not read from dirac_residual
    failures = []
    quad = build_quadrature(64)
    f, g = FAMILY["x1"], FAMILY["x2"]
    bracket = poisson_function(f, g)
    antis = []
    for m in LEVELS:
        tf, tg = toeplitz(f, m, quad=quad), toeplitz(g, m, quad=quad)
        antis.append(op_norm(m * (tf @ tg - tg @ tf) - (-1j) * toeplitz(bracket, m, quad=quad)))
    tail = [a for m, a in zip(LEVELS, antis) if m >= 8]
    if not all(b < a for a, b in zip(tail, tail[1:])):
        failures.append("not monotone for m >= 8")
    failures += _closed_form_failures("antisymmetric part", LEVELS, antis)
    slope = fit_loglog_slope(LEVELS, antis)
    if slope is None or not (-1.3 <= slope <= -0.7):
        failures.append(f"antisymmetric slope {slope}")
    report("star product first-order antisymmetric structure", failures)


def test_tuynman_identity():
    failures = []
    for name in ("x1", "x3"):
        f = FAMILY[name]
        for m in (2, 4, 8, 16):
            res = tuynman_residual(f, m)
            if res > 1e-6:
                failures.append(f"{name} m={m}: {res}")
            r_coarse = max(1, (m + 5) // 4)
            res_c = tuynman_residual(f, m, quad=build_quadrature(m, radial=r_coarse))
            res_f = tuynman_residual(f, m, quad=build_quadrature(m, radial=2 * r_coarse))
            if not res_c >= 2.0 * res_f:
                failures.append(f"{name} m={m}: refinement {res_c} -> {res_f}")
    report("covariant-derivative vs toeplitz identity (quadrature limited)",
           failures)


def test_prequantum_curvature_condition():
    failures = []
    res = curvature_residual(grid_halfwidth=3.0, grid_points=61, step=1e-3)
    if res > 1e-5:
        failures.append(f"curvature residual {res}")
    quad = build_quadrature(16)
    mass_defect = abs(quad.total_mass() / (2 * math.pi) - 1.0)
    if mass_defect > 1e-8:
        failures.append(f"total mass defect {mass_defect}")
    report("curvature equals form (chern number one)", failures)


def _nodal_cubic():
    X = [Polynomial.variable(3, i) for i in range(3)]
    return X[1] ** 2 * X[2] - 4 * X[0] ** 2 * (X[0] + X[2])


def test_singularity_suite():
    failures = []
    origin = ProjPoint((F(0), F(0), F(1)))

    # cuspidal cubic: closed-form singular locus is exactly {(0:0:1)}
    cusp_pts = weierstrass_cubic_singular_points(F(0), F(0))
    if [p.coords for p in cusp_pts] != [origin.coords]:
        failures.append("cuspidal singular locus")
    cusp = VarietyPresentation([weierstrass_cubic(F(0), F(0))], claimed_dim=1)
    if not is_singular_point(cusp, origin):
        failures.append("cusp rank test")
    for t in (F(1), F(-2), F(1, 3), F(5, 2)):
        p = ProjPoint((t ** 2, 2 * t ** 3, F(1)))  # rational parameterization
        if rank_at(cusp, p) != 1 or is_singular_point(cusp, p):
            failures.append(f"cusp regular point t={t}")

    # nodal cubic: the partials are (-12X^2-8XZ, 2YZ, Y^2-4X^2); rank zero
    # forces YZ=0 and Y^2=4X^2, so Z=0 gives X=Y=0 (no point) and Z!=0
    # gives Y=0, X=0: the origin of the chart is the only singular point
    nodal = VarietyPresentation([_nodal_cubic()], claimed_dim=1)
    if not is_singular_point(nodal, origin):
        failures.append("node rank test")
    for t in (F(1), F(3), F(-1, 2), F(7, 3)):
        if t == 2 or t == -2:
            continue
        x = (t ** 2 - 4) / 4
        p = ProjPoint((x, t * x, F(1)))  # chord parameterization through the node
        if not is_on_variety(nodal, p):
            failures.append(f"node parameterization t={t}")
        elif is_singular_point(nodal, p):
            failures.append(f"node regular point t={t}")

    # twenty-case rational corpus: smooth <=> nonzero discriminant
    corpus = [(F(0), F(0)), (F(3), F(1)), (F(4), F(0)), (F(0), F(1)),
              (F(-3), F(1)), (F(12), F(-8)), (F(27), F(27)), (F(3, 4), F(1, 8)),
              (F(1), F(2)), (F(-1), F(-1)), (F(48), F(-64)), (F(75), F(125)),
              (F(2), F(3)), (F(-12), F(8)), (F(6, 5), F(2, 5)), (F(9), F(-3)),
              (F(300), F(1000)), (F(1, 9), F(1, 27)), (F(-27), F(81)), (F(108), F(216))]
    assert len(corpus) == 20
    for g2, g3 in corpus:
        smooth = cubic_classify(g2, g3) is CubicClass.SMOOTH
        pts = weierstrass_cubic_singular_points(g2, g3)
        if smooth != (pts == []):
            failures.append(f"classification mismatch at ({g2},{g3})")
        V = VarietyPresentation([weierstrass_cubic(g2, g3)], claimed_dim=1)
        for p in pts:
            if not is_singular_point(V, p):
                failures.append(f"rank test at ({g2},{g3})")

    # affine tangent space at the origin of Y^2 = 4X(X-a)(X-b)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    for a, b in [(F(1), F(2)), (F(-1), F(3)), (F(1, 2), F(1, 3)),
                 (F(0), F(2)), (F(3), F(0)), (F(0), F(0))]:
        gen = y ** 2 - 4 * x * (x - a) * (x - b)
        dim = zariski_tangent_dim([gen], (F(0), F(0)))
        expected = 1 if a * b != 0 else 2
        if dim != expected:
            failures.append(f"tangent dim at a={a}, b={b}")
    report("singularity suite (exact arithmetic)", failures)


def test_torus_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    eps = 0.01
    for tau in (1j, 2j, cmath.exp(1j * math.pi / 3) + eps):
        lat = Lattice(tau)
        count = 0
        while count < 10:
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95) * lat.tau.imag)
            if lat.distance_to_lattice(z) < 1e-3:
                continue
            res = ode_residual(lat, z)
            if res >= 1e-6:
                failures.append(f"ode residual {res} at tau={tau}")
            count += 1
    if abs(eisenstein(Lattice(1j)).g3) > 1e-10:
        failures.append("g3 on the square lattice")
    if abs(eisenstein(Lattice(cmath.exp(1j * math.pi / 3))).g2) > 1e-10:
        failures.append("g2 on the hexagonal lattice")
    lat = Lattice(2j)
    pair = eisenstein(lat)
    cubic = VarietyPresentation([weierstrass_cubic(pair.g2.real, pair.g3.real)],
                                claimed_dim=1)
    for z in (0.4, 0.3 + 0.2j, 0.7 + 1.3j, 0.25 + 0.6j):
        if not is_on_variety(cubic, embed(lat, z), tol=1e-5):
            failures.append(f"embedded point off cubic at z={z}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report("torus differential-equation and embedding oracle", failures)


def _quotient_dim_bruteforce(f, m):
    top = monomials_of_degree(f.nvars, m)
    if m < f.degree():
        return len(top)
    low = monomials_of_degree(f.nvars, m - f.degree())
    index = {mono: i for i, mono in enumerate(top)}
    mat = np.zeros((len(top), len(low)))
    for j, mono in enumerate(low):
        prod = f * Polynomial.monomial(f.nvars, mono)
        for mm, c in prod.terms.items():
            mat[index[mm], j] = float(c)
    return len(top) - np.linalg.matrix_rank(mat, tol=1e-9)


def test_coordinate_ring_dimensions():
    failures = []
    X3 = [Polynomial.variable(3, i) for i in range(3)]
    X4 = [Polynomial.variable(4, i) for i in range(4)]
    hypersurfaces = [
        X3[0],
        X3[1] ** 2 - X3[0] * X3[2],
        X3[1] ** 2 * X3[2] - 4 * X3[0] ** 3,
        X3[0] ** 4 + X3[1] ** 4 + X3[2] ** 4,
        X4[0] * X4[3] - X4[1] * X4[2],
    ]
    for f in hypersurfaces:
        R = GradedRingPresentation.hypersurface(f)
        for m in range(0, 13):
            expected = _quotient_dim_bruteforce(f, m)
            if hilbert_function(R, m) != expected:
                failures.append(f"{f} at m={m}")
    cubic_ring = GradedRingPresentation(3, (3,))
    if hilbert_polynomial_degree(cubic_ring) != 1 or variety_dim(cubic_ring) != 1:
        failures.append("plane cubic dimension")
    report("graded dimensions vs brute-force monomial counting", failures)


def test_symplectic_git_correspondence():
    t0 = time.perf_counter()
    failures = []
    action = LinearAction.from_weights((-1, 1))
    X0, X1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    if not infinitesimal_invariance(X0 * X1, action):
        failures.append("invariance certificate")
    inv = InvariantSet.certified([X0 * X1], action)
    report_data = kirwan_correspondence_check(action, inv, n_samples=200,
                                              tol=1e-9, seed=0)
    if report_data["n_samples"] != 200:
        failures.append("sample count")
    if not report_data["equivalence_holds"]:
        failures.append(f"{report_data['mismatches']} equivalence mismatches")
    if not report_data["zero_level_all_semistable"]:
        failures.append("zero level not semistable")
    if report_data["quotient_classes"] != 1:
        failures.append(f"quotient classes {report_data['quotient_classes']}")
    if not report_data["quotient_matches_invariants"]:
        failures.append("orbit classes disagree with invariant classification")
    fixed = [r for r in report_data["samples"]
             if r["point"] in ("(1.0 : 0.0)", "(0.0 : 1.0)")]
    if len(fixed) != 2 or any(r["semistable"] or r["orbit_meets_zero_level"]
                              for r in fixed):
        failures.append("fixed points misclassified")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report("symplectic quotient vs invariant-theory stability", failures)


def test_output_determinism(tmp_path):
    failures = []
    commands = [
        ["classify-cubic", "--g2", "3", "--g3", "1"],
        ["hilbert", "--nvars", "3", "--degrees", "3", "--m", "0..10"],
        ["bt-converge", "--check", "tuynman", "--f", "x3",
         "--m-min", "2", "--m-max", "8"],
        ["moment-map", "--weights=-1,1", "--samples", "60"],
        ["weierstrass-embed", "--tau", "2j", "--samples", "12"],
    ]
    for run in ("a", "b"):
        for i, cmd in enumerate(commands):
            out = tmp_path / f"{run}_{i}.txt"
            cli_main(cmd + ["--out", str(out)])
    for i in range(len(commands)):
        a = (tmp_path / f"a_{i}.txt").read_bytes()
        b = (tmp_path / f"b_{i}.txt").read_bytes()
        if a != b:
            failures.append(f"command {i} output differs")
    report("byte-identical reruns under a fixed configuration", failures)
