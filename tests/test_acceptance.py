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
import random
import sys
import time
from fractions import Fraction

import numpy as np

from projquant.btquant import (
    SectionBasis,
    build_quadrature,
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
from projquant.gaussrat import exact_rank
from projquant.coordring import (
    GradedRingPresentation,
    hilbert_function,
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
from projquant.weierstrass import POLE_GUARD, Lattice, eisenstein, embed, ode_residual, wp, wp_prime
from reference_routes import on_variety_within

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


#: rational values of u = |z|^2 at which the curvature identity is checked
CURVATURE_GRID = [F(0), F(1, 1000), F(1, 3), F(1, 2), F(1), F(2), F(7, 3), F(10), F(1000)]


def _radial_curvature(p: int, u: Fraction) -> Fraction:
    """-d^2 F / dz dzbar for F = log h1^p = -log g, g = (1 + u)^p, at u = |z|^2.

    For a radial F the operator is F'(u) + u F''(u), and F' = -g'/g,
    F'' = (g'^2 - g g'') / g^2 are exact rationals: g and its derivatives are
    expanded as polynomials in u and evaluated in Fraction arithmetic.
    """
    g = (Polynomial.constant(1, 1) + Polynomial.variable(1, 0)) ** p
    g1 = g.partial(0)
    g0, d1, d2 = (q.evaluate((u,)) for q in (g, g1, g1.partial(0)))
    return -(-d1 / g0 + u * (d1 ** 2 - g0 * d2) / g0 ** 2)


def test_prequantum_curvature_condition():
    # the curvature of h1^p is p times the dz dzbar density (1+u)^-2 of omega,
    # exactly, for the levels p = 1..4
    failures = []
    for p in range(1, 5):
        for u in CURVATURE_GRID:
            curvature = _radial_curvature(p, u)
            density = p * (1 + u) ** -2
            if not (isinstance(curvature, Fraction) and curvature == density):
                failures.append(f"p={p} u={u}: curvature {curvature!r} != {density!r}")
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
        if not on_variety_within(cubic, embed(lat, z), 1e-5):
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
    if variety_dim(cubic_ring) != 1:
        failures.append("plane cubic dimension")
    # the quantum Hilbert space at level m is the degree-m piece of the
    # coordinate ring of P^1: dim H^0(L^m) = h_{K[P^1]}(m) = m + 1
    p1_ring = GradedRingPresentation(2)
    for m in range(1, 9):
        if SectionBasis.build(m).dim != hilbert_function(p1_ring, m):
            failures.append(f"level-{m} section space vs degree-{m} piece of K[P^1]")
    report("graded dimensions vs brute-force monomial counting", failures)


def test_singular_cubic_ring_is_its_forms_on_the_curve():
    # the paper's claim on singular curves: the degree-m piece of the
    # coordinate ring K[X, Y, Z]/(f) is the space of degree-m forms restricted
    # to the curve.  A nonzero such form meets the cubic in at most 3m points
    # (Bezout), so its values at 3m + 5 distinct points of the curve are not
    # all zero, and the rank of the monomials' values is that space's
    # dimension: exact, with no tolerance.
    failures = []
    curves = [  # rational parametrizations (x(t), y(t)) of y^2 = 4x^3 - g2 x - g3
        (CubicClass.NODAL, F(12), F(-8), lambda t: (t * t - 2, 2 * t * (t * t - 3))),
        (CubicClass.CUSPIDAL, F(0), F(0), lambda t: (t * t, 2 * t ** 3)),
    ]
    for kind, g2, g3, curve in curves:
        if cubic_classify(g2, g3) is not kind:
            failures.append(f"({g2}, {g3}) is not {kind.value}")
        ring = GradedRingPresentation.hypersurface(weierstrass_cubic(g2, g3))
        for m in range(6):
            points = [curve(F((-1) ** k * (k + 1), 2)) for k in range(3 * m + 5)]
            values = [[x ** a * y ** b for a, b, _ in monomials_of_degree(3, m)]
                      for x, y in points]
            if exact_rank(values) != hilbert_function(ring, m):
                failures.append(f"{kind.value} cubic at m={m}: rank {exact_rank(values)} "
                                f"vs h(m) = {hilbert_function(ring, m)}")
    report("singular cubics: coordinate ring = forms on the curve", failures)


def _add(p, q):
    """Chord-tangent sum of two affine points of Y^2 = 4x^3 - 8, neither the
    inverse of the other: the line through them (the tangent if p = q) meets
    the curve a third time at x3 = s^2 / 4 - x1 - x2, its slope s; the sum is
    that point's reflection."""
    (x1, y1), (x2, y2) = p, q
    s = 12 * x1 * x1 / (2 * y1) if p == q else (y2 - y1) / (x2 - x1)
    x3 = s * s / 4 - x1 - x2
    return x3, -(y1 + s * (x3 - x1))


def test_smooth_cubic_ring_is_its_forms_on_the_curve():
    # the paper's claim on a smooth curve, exactly.  On Y^2 = 4x^3 - 8
    # (g2 = 0, g3 = 8) the point P = (3, 10) has infinite order, so P, -P,
    # 2P, -2P, ... from the chord-tangent rule are distinct rational points.
    # A nonzero form of degree m on the irreducible cubic meets it in at most
    # 3m points (Bezout), so the rank of the degree-m monomials' values at
    # 3m + 1 of them is the degree-m piece's dimension h(m): 1, then 3m,
    # which is h^0 of the degree-3m line bundle on a genus-1 curve
    # (Riemann-Roch), the quantum space's dimension at level m.
    failures = []
    g2, g3 = F(0), F(8)
    if cubic_classify(g2, g3) is not CubicClass.SMOOTH:
        failures.append(f"({g2}, {g3}) is not smooth")
    cubic = VarietyPresentation([weierstrass_cubic(g2, g3)], claimed_dim=1)
    ring = GradedRingPresentation.hypersurface(cubic.generators[0])
    P = kP = (F(3), F(10))
    points = []
    while len(points) < 19:
        points += [kP, (kP[0], -kP[1])]
        kP = _add(kP, P)
    if len(set(points)) != len(points):
        failures.append("repeated point")
    for x, y in points:
        if not is_on_variety(cubic, ProjPoint((x, y, F(1)))):
            failures.append(f"({x}, {y}) is off the cubic")
    for m in range(7):
        values = [[x ** a * y ** b for a, b, _ in monomials_of_degree(3, m)]
                  for x, y in points[:3 * m + 1]]
        if exact_rank(values) != hilbert_function(ring, m):
            failures.append(f"smooth cubic at m={m}: rank {exact_rank(values)} "
                            f"vs h(m) = {hilbert_function(ring, m)}")
    report("smooth cubic: coordinate ring = forms on the curve", failures)


def _cubic_excess(g3, values) -> float:
    """Largest |Y^2 - (4x^3 - 8)| / bound over (wp, wp') pairs scaled to
    x = wp / mu^2, Y = wp' / mu^3 with mu^6 = g3 / 8, where g2 = 0 leaves
    wp'^2 = 4 wp^3 - g3.  To first order, relative errors d and d' in wp and
    wp' move the residual by 12 |x|^3 d + 2 |Y|^2 d' <= 3 T max(d, d'),
    T = |Y|^2 + 4 |x|^3 + 8 the size of its terms; with wp and wp' claimed
    to 16 eps, and 16 eps T more for g3, mu^6 = g3 / 8 and the residual's
    own rounding (T >= 8 bounds the constant term), bound = 64 eps T."""
    mu = (g3 / 8) ** (1 / 6)
    worst = 0.0
    for p, pp in values:
        x, y = p / mu ** 2, pp / mu ** 3
        size = abs(y) ** 2 + 4 * abs(x) ** 3 + 8
        worst = max(worst, abs(y * y - (4 * x ** 3 - 8)) / (64 * sys.float_info.epsilon * size))
    return worst


def test_smooth_cubic_is_the_torus_the_package_builds():
    # the curve Y^2 = 4x^3 - 8 of the test above is the equianharmonic torus
    # C / (Z + Z rho), rho = e^(2 pi i / 3): E4(rho) = 0, so g2 = 0, and
    # scaling (wp, wp') by (mu^-2, mu^-3), mu^6 = g3 / 8, puts the torus on it
    t0 = time.perf_counter()
    failures = []
    lat = Lattice(cmath.exp(2j * math.pi / 3))
    pair = eisenstein(lat)
    # g2 is then the omitted tail (tail_bound) plus the rounding of the E4
    # series 1 + 240 sum n^3 x_n, x_n = q^n / (1 - q^n), n <= N: each term
    # takes at most 2 ceil(log2 N) + 3 complex operations (4 eps each), the
    # sum N + 1 additions and the scalings 4 more, all relative to the
    # terms' size
    _, lam, q, _ = lat.reduction
    n_max = pair.cutoff
    size = 1 + sum(240 * n ** 3 * abs(q ** n / (1 - q ** n)) for n in range(1, n_max + 1))
    eta = (n_max + 5 + 4 * (2 * math.ceil(math.log2(n_max)) + 3)) * sys.float_info.epsilon
    g2_bound = pair.tail_bound + 4 * math.pi ** 4 / 3 / abs(lam) ** 4 * eta * size
    if not abs(pair.g2) <= g2_bound:
        failures.append(f"|g2| = {abs(pair.g2):.3e} at rho exceeds {g2_bound:.3e}")
    rng = random.Random(35)
    values = []
    while len(values) < 50:
        z = rng.random() + rng.random() * lat.tau
        if lat.distance_to_lattice(z) > 10 * POLE_GUARD:
            values.append((wp(lat, z), wp_prime(lat, z)))
    excess = _cubic_excess(pair.g3, values)
    if not excess <= 1.0:
        failures.append(f"scaled torus points off Y^2 = 4x^3 - 8: {excess:.2f} x the bound")
    # the bound is tight enough to see a 1e-12 relative error in wp
    if not _cubic_excess(pair.g3, [(p * (1 + 1e-12), pp) for p, pp in values]) > 1.0:
        failures.append("a 1e-12 relative error in wp passes the bound")
    elapsed = time.perf_counter() - t0
    if elapsed >= 0.5:
        failures.append(f"runtime {elapsed:.2f}s")
    report("smooth cubic: the equianharmonic torus scaled onto Y^2 = 4x^3 - 8", failures)


def test_symplectic_git_correspondence():
    t0 = time.perf_counter()
    failures = []
    action = LinearAction.from_weights((-1, 1))
    X0, X1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    if not infinitesimal_invariance(X0 * X1, action):
        failures.append("invariance certificate")
    inv = InvariantSet.certified([X0 * X1], action)
    report_data = kirwan_correspondence_check(action, inv, n_samples=200, seed=0)
    if report_data["n_samples"] != 200:
        failures.append("sample count")
    if not report_data["equivalence_holds"]:
        failures.append(f"{report_data['mismatches']} equivalence mismatches")
    if not report_data["zero_level_all_semistable"]:
        failures.append("zero level not semistable")
    if report_data["quotient_dim"] != 0:
        failures.append(f"quotient dimension {report_data['quotient_dim']}, not a point")
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
