"""Unified command-line front end.

Exit codes: 0 on success, 1 when a numeric check violates its threshold or
the numerics break down (CI-friendly), 2 on usage errors.  All CSV output
carries a header row, '.' decimals and leading '# key = value' lines echoing
the configuration; JSON output embeds the same configuration under the
"config" key.  Identical configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .config import RunConfig, load_config, output_path

PASS, FAIL, USAGE = 0, 1, 2


class UsageError(ValueError):
    pass


def _write(text: str, out: str | None):
    path = output_path(out)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(config: RunConfig, header: list[str], rows, trailer: list[str] = ()) -> str:
    lines = list(config.comment_lines())
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    lines.extend(trailer)
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, complex):
        if abs(x.imag) > 1e-12 * max(1.0, abs(x.real)):
            return repr(complex(x))
        x = x.real
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _json_report(config: RunConfig, payload: dict) -> str:
    payload = dict(payload)
    payload["config"] = config.to_dict()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _argument(expected: str):
    """Turn parse(text) into an argparse type: a ValueError it raises becomes
    a usage error naming the flag (argparse adds it), what was expected and
    the offending text."""
    def wrap(parse):
        def parse_argument(text: str):
            try:
                return parse(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        return parse_argument
    return wrap


@_argument("a rational number such as 3/4")
def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


@_argument("a positive integer")
def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


@_argument("comma-separated integers such as -1,1")
def _integers(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


@_argument("comma-separated levels >= 1 such as 2,4,8")
def _levels(text: str) -> tuple[int, ...]:
    levels = tuple(int(part) for part in text.split(","))
    if min(levels) < 1:
        raise ValueError(text)
    return levels


@_argument("a finite complex number with positive imaginary part such as 2j")
def _lattice(text: str):
    from .weierstrass import Lattice
    return Lattice(complex(text))


@_argument("a degree or a range lo..hi with lo <= hi")
def _degree_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    lo, hi = int(lo), int(hi if sep else lo)
    if lo > hi:
        raise ValueError(text)
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# subcommand handlers: each imports what it uses, so a command loads no module
# (and the exact ones no numpy) that it does not need
# ---------------------------------------------------------------------------

def cmd_classify_cubic(args, config: RunConfig) -> int:
    from . import projgeo

    g2, g3 = args.g2, args.g3
    verdict = projgeo.cubic_classify(g2, g3)
    singular = [projgeo.format_point(p)
                for p in projgeo.weierstrass_cubic_singular_points(g2, g3)]
    payload = {
        "g2": str(g2),
        "g3": str(g3),
        "class": verdict.value,
        "discriminant": str(projgeo.discriminant(g2, g3)),
        "singular_points": singular,
    }
    _write(_json_report(config, payload), args.out)
    return PASS


def cmd_curve_points(args, config: RunConfig) -> int:
    import numpy as np

    from . import projgeo
    from .poly import parse_polynomial

    if args.poly is not None:
        f = parse_polynomial(args.poly, nvars=3)
        if f.is_zero:
            raise UsageError(f"--poly is the zero polynomial, zero at every point: {args.poly!r}")
        if not f.is_homogeneous():
            raise UsageError("curve polynomial must be homogeneous in X0, X1, X2")
    else:
        f = projgeo.weierstrass_cubic(args.g2, args.g3)
    if args.resolution < 2:
        raise UsageError(f"--resolution must be >= 2 grid nodes per axis, got {args.resolution}")
    for axis, lo, hi in (("x", args.xmin, args.xmax), ("y", args.ymin, args.ymax)):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise UsageError(f"the {axis} window needs finite bounds, got [{lo}, {hi}]")
        if lo == hi:
            raise UsageError(f"the {axis} window is empty: --{axis}min = --{axis}max = {lo}")
    affine = f.dehomogenize(2)  # plot plane is the chart X2 = 1

    def val(x, y):
        return np.real(np.broadcast_to(affine.evaluate_array((x, y)), np.broadcast(x, y).shape))

    xs = np.linspace(args.xmin, args.xmax, args.resolution)
    ys = np.linspace(args.ymin, args.ymax, args.resolution)
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    grid = val(nodes[..., 0], nodes[..., 1])
    # vertical grid lines, then horizontal ones: a node value of exactly 0 is a
    # point (lo = hi), a sign change a bracket; the fixed coordinate stays exact
    lo, hi, fa = [], [], []
    for vals, p in ((grid, nodes), (grid.T, nodes.transpose(1, 0, 2))):
        a, b = vals[:, :-1], vals[:, 1:]
        hit = (a == 0.0) | ((a < 0) != (b < 0))
        lo.append(p[:, :-1][hit])
        hi.append(np.where((a[hit] == 0.0)[:, None], lo[-1], p[:, 1:][hit]))
        fa.append(a[hit])
    lo, hi, fa = (np.concatenate(c) for c in (lo, hi, fa))
    for _ in range(60):  # all brackets in lockstep, until a step moves none
        mid = 0.5 * (lo + hi)
        fm = val(mid[:, 0], mid[:, 1])
        stop = fm == 0.0  # an exact zero freezes its bracket at mid
        left = (fa < 0) != (fm < 0)
        state = (np.where((stop | ~left)[:, None], mid, lo),
                 np.where((stop | left)[:, None], mid, hi), np.where(left, fa, fm))
        if all(map(np.array_equal, state, (lo, hi, fa))):
            break  # a fixed point: every later step would repeat this one
        lo, hi, fa = state
    pts = sorted(map(tuple, (0.5 * (lo + hi)).tolist()))
    _write(_csv(config, ["x", "y"], pts), args.out)
    return PASS


def cmd_weierstrass_embed(args, config: RunConfig) -> int:
    import random

    from . import weierstrass

    lat = args.tau
    residual = weierstrass.eisenstein(lat).cubic_residual
    uniform, guard = random.Random(config.seed).uniform, 10 * weierstrass.POLE_GUARD
    # Every z is within the covering radius R of the lattice, so for R <= guard
    # no draw clears the guard.  For reduced tau', R <= h / sqrt 2, h = |lam|
    # Im tau' the spacing of the lattice's rows along lam; so R > 3 guard gives
    # h > 4 guard, and at least half of the plane is farther than guard from
    # every row.  The box below is 0.96^2 of the cell [0, 1) x [0, Im tau), so
    # then a draw clears the guard with probability above 0.45.
    if lat.covering_radius <= 3 * guard:
        raise weierstrass.LatticeScaleError(
            f"tau = {lat.tau!r}: covering radius {lat.covering_radius!r} <= {3 * guard!r}, "
            f"too fine a lattice for samples to clear the pole guard {guard!r}")
    rows = []
    while len(rows) < args.samples:
        # one (x, y) draw per candidate point: none after the last accepted one
        z = complex(uniform(0.02, 0.98), uniform(0.02, 0.98) * lat.tau.imag)
        try:
            pair = weierstrass._wp_pair(lat, z, guard)
        except weierstrass.LatticePointError:
            continue
        rows.append((z.real, z.imag, *pair, 1.0, residual(*pair)))
    worst = max(row[5] for row in rows)
    trailer = [f"# max_ode_residual = {worst!r}", f"# pass = {worst <= 1e-6}"]
    _write(_csv(config, ["z_re", "z_im", "X", "Y", "Z", "residual"], rows, trailer),
           args.out)
    return PASS if worst <= 1e-6 else FAIL


def cmd_hilbert(args, config: RunConfig) -> int:
    from . import coordring

    ring = coordring.GradedRingPresentation(args.nvars, args.degrees)
    rows = [(m, coordring.hilbert_function(ring, m)) for m in args.m]
    dim = coordring.variety_dim(ring)
    trailer = [f"# variety_dim = {dim}"]
    _write(_csv(config, ["m", "dim"], rows, trailer), args.out)
    return PASS


def cmd_moment_map(args, config: RunConfig) -> int:
    from . import gitquot

    action = gitquot.LinearAction.from_weights(args.weights)
    inv = _weight_invariants(action)
    report = gitquot.kirwan_correspondence_check(
        action, inv, n_samples=args.samples, seed=config.seed)
    ok = report.get("equivalence_holds")
    payload = {"weights": list(args.weights), "report": report,
               "invariants": [str(F) for F in (inv.polys if inv else ())]}
    _write(_json_report(config, payload), args.out)
    if ok is None:
        return PASS  # nothing decidable; contract behavior, not a failure
    return PASS if (ok and report["zero_level_all_semistable"]) else FAIL


def _weight_invariants(action):
    """Certified monomial invariants of a diagonal gitquot.LinearAction, read
    off its weights: X_k for each w_k = 0, then X_i^(w_j/g) X_j^(-w_i/g),
    g = gcd(w_i, w_j), for each pair w_i < 0 < w_j.  A monomial is nonzero
    exactly where its support lies in the point's, and a support carries an
    invariant monomial iff it has a zero weight or weights of both signs, so
    the set's common zeros are exactly those of the invariant ring.  It need
    not generate the ring: weights (2,-1,-1) also have X0 X1 X2.
    Returns None when there are none (all weights of one sign)."""
    import math

    from . import gitquot
    from .poly import Polynomial

    weights = action.weights
    X = [Polynomial.variable(len(weights), k) for k in range(len(weights))]
    kept = [X[k] for k, w in enumerate(weights) if w == 0]
    kept += [X[i] ** (wj // math.gcd(wi, wj)) * X[j] ** (-wi // math.gcd(wi, wj))
             for i, wi in enumerate(weights) for j, wj in enumerate(weights) if wi < 0 < wj]
    if not kept:
        return None
    return gitquot.InvariantSet.certified(kept, action)


def _test_function(family: dict, name: str, flag: str):
    """family[name]; an unknown name is a usage error that names the flag and
    lists the choices."""
    try:
        return family[name]
    except KeyError:
        raise UsageError(f"unknown test function {name!r} for {flag}; "
                         f"choose from {sorted(family)}") from None


def cmd_bt_converge(args, config: RunConfig) -> int:
    from .btquant import bands

    family = bands.family()
    f = _test_function(family, args.f, "--f")
    g = _test_function(family, args.g, "--g") if args.g else None
    if g is None and args.check in ("dirac", "c1"):
        raise UsageError(f"--g is required for the {args.check} check")
    if args.m_min > args.m_max:
        raise UsageError(f"--m-min {args.m_min} is above --m-max {args.m_max}")
    levels = bands.doubling_levels(args.m_min, args.m_max)

    if args.check == "norm":
        sup = bands.FAMILY[args.f][1]
        rows = [(m, bands.op_norm(bands.toeplitz(f, m), hermitian=True)) for m in levels]
        slope = bands.fit_loglog_slope(levels, [sup - nrm for (_, nrm) in rows])
        bound_ok = all(nrm <= sup + 1e-8 for (_, nrm) in rows)
        ok = bound_ok and slope is not None and abs(slope + 1.0) <= 0.15
        trailer = [f"# sup_norm = {sup!r}",
                   f"# gap_slope = {slope!r}",
                   f"# upper_bound_ok = {bound_ok}"]
    elif args.check == "dirac":
        table = bands.convergence_table(lambda m: bands.dirac_residual(f, g, m), levels)
        rows = table.rows()
        slope_ok = table.slope is not None and abs(table.slope + 1.0) <= 0.3
        # a commuting pair's residual is exactly 0: no ratio, and the gate fails
        ratio = table.values[0] / table.values[-1] if table.values[-1] else None
        ratio_ok = ratio is not None and ratio > 8.0
        ok = slope_ok and ratio_ok
        trailer = [f"# slope = {table.slope!r}",
                   f"# first_over_final = {ratio!r}",
                   f"# slope_ok = {slope_ok}", f"# ratio_ok = {ratio_ok}"]
    elif args.check == "product":
        table = bands.convergence_table(
            lambda m: bands.product_residual(f, g if g else f, m), levels)
        rows = table.rows()
        ok = table.slope is not None and abs(table.slope + 1.0) <= 0.3
        trailer = [f"# slope = {table.slope!r}"]
    elif args.check == "tuynman":
        rows = [(m, bands.tuynman_residual(f, m)) for m in levels]
        ok = all(v <= 1e-6 for (_, v) in rows)
        trailer = []
    else:  # c1, argparse's fifth choice: the Dirac norm (see btquant.asymptotics)
        table = bands.convergence_table(lambda m: bands.dirac_residual(f, g, m), levels)
        rows = table.rows()
        tail = [a for (m, a) in rows if m >= 8]
        monotone = all(b < a for a, b in zip(tail, tail[1:]))
        ratio_ok = rows[-1][1] < 0.05 * rows[0][1]
        ok = monotone and ratio_ok
        trailer = [f"# antisym_slope = {table.slope!r}",
                   f"# monotone_from_8 = {monotone}",
                   f"# final_under_5pct_of_first = {ratio_ok}"]
    _write(_csv(config, ["m", "value"], rows, trailer + [f"# pass = {ok}"]), args.out)
    return PASS if ok else FAIL


def cmd_tuynman_check(args, config: RunConfig) -> int:
    from .btquant import bands

    family = bands.family()
    functions = [(name, _test_function(family, name, "--f")) for name in args.f]
    rows = [(name, m, bands.tuynman_residual(f, m)) for name, f in functions for m in args.m]
    worst = max(res for (_, _, res) in rows)
    ok = worst <= 1e-6
    trailer = [f"# max_residual = {worst!r}", f"# pass = {ok}"]
    _write(_csv(config, ["f", "m", "residual"], rows, trailer), args.out)
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged.  It holds the cmd_* handlers themselves, so replacing one of
    them after the first call has no effect (their own globals are still
    looked up at call time)."""
    parser = argparse.ArgumentParser(
        prog="projquant",
        description="Projective geometry, torus embeddings, Berezin-Toeplitz "
                    "quantization and moment-map checks")
    parser.add_argument("--config", help="path to a key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-cubic", help="classify a Weierstrass plane cubic")
    p.add_argument("--g2", type=_fraction, required=True)
    p.add_argument("--g3", type=_fraction, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_classify_cubic)

    p = sub.add_parser("curve-points", help="real locus of a plane curve as CSV")
    p.add_argument("--poly", help="homogeneous polynomial in X0, X1, X2")
    p.add_argument("--g2", type=_fraction, default=Fraction(0))
    p.add_argument("--g3", type=_fraction, default=Fraction(0))
    p.add_argument("--xmin", type=float, default=-2.0)
    p.add_argument("--xmax", type=float, default=2.0)
    p.add_argument("--ymin", type=float, default=-3.0)
    p.add_argument("--ymax", type=float, default=3.0)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_curve_points)

    p = sub.add_parser("weierstrass-embed", help="embed a torus into P^2")
    p.add_argument("--tau", type=_lattice, required=True,
                   help="lattice parameter as a Python complex, e.g. 2j or 0.5+0.866j")
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_weierstrass_embed)

    p = sub.add_parser("hilbert", help="graded dimensions of a coordinate ring")
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--degrees", type=_integers, default=(),
                   help="comma-separated relation degrees (omit for the full ring)")
    p.add_argument("--m", type=_degree_range, default="0..10", help="degree or lo..hi range")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("moment-map", help="moment map / stability report")
    p.add_argument("--weights", type=_integers, required=True, help="comma-separated integers")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_moment_map)

    p = sub.add_parser("bt-converge", help="semiclassical convergence tables")
    p.add_argument("--check", required=True,
                   choices=["norm", "dirac", "product", "tuynman", "c1"])
    p.add_argument("--f", required=True, help="test function name (e.g. x3)")
    p.add_argument("--g", help="second test function where applicable")
    p.add_argument("--m-min", type=_positive_int, default=4)
    p.add_argument("--m-max", type=_positive_int, default=64)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_bt_converge)

    p = sub.add_parser("tuynman-check", help="geometric-quantization identity check")
    p.add_argument("--f", type=functools.partial(str.split, sep=","), default="x1,x3",
                   help="comma-separated function names")
    p.add_argument("--m", type=_levels, default="2,4,8,16", help="comma-separated levels")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_tuynman_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))  # exits with code 2
    try:
        return args.handler(args, config)
    except _numeric_failures() as exc:  # before ValueError: LinAlgError is one
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return FAIL
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def _numeric_failures() -> tuple[type, ...]:
    """The numeric failure classes of the modules loaded so far.  An except
    clause evaluates this only once an exception is raised; a handler that
    never imported numpy or btquant cannot raise theirs, so it imports neither."""
    return tuple(getattr(sys.modules[module], name) for module, name in (
        ("numpy.linalg", "LinAlgError"),
        ("projquant.btquant.quadrature", "InsufficientResolutionError"),
        ("projquant.weierstrass", "LatticeScaleError"))
        if module in sys.modules)


if __name__ == "__main__":
    sys.exit(main())
