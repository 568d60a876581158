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


def _fraction(text: str) -> Fraction:
    """A rational argument such as 3/4; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


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
        if not f.is_homogeneous():
            raise UsageError("curve polynomial must be homogeneous in X0, X1, X2")
    else:
        f = projgeo.weierstrass_cubic(args.g2, args.g3)
    if args.resolution < 2:
        raise UsageError(f"--resolution must be >= 2 grid nodes per axis, got {args.resolution}")
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
    for _ in range(60):  # all brackets in lockstep
        mid = 0.5 * (lo + hi)
        fm = val(mid[:, 0], mid[:, 1])
        stop = fm == 0.0  # an exact zero freezes its bracket at mid
        left = (fa < 0) != (fm < 0)
        lo = np.where((stop | ~left)[:, None], mid, lo)
        hi = np.where((stop | left)[:, None], mid, hi)
        fa = np.where(left, fa, fm)
    pts = sorted(map(tuple, (0.5 * (lo + hi)).tolist()))
    _write(_csv(config, ["x", "y"], pts), args.out)
    return PASS


def cmd_weierstrass_embed(args, config: RunConfig) -> int:
    import numpy as np

    from . import weierstrass

    lat = weierstrass.Lattice(complex(args.tau))
    rng = np.random.default_rng(config.seed)
    zs = np.empty(0, dtype=complex)
    while len(zs) < args.samples:
        # blocks of the points still needed: the stream of one (x, y) draw per
        # point, and never a draw past the last accepted point
        xy = rng.uniform(0.02, 0.98, size=(args.samples - len(zs), 2))
        z = xy[:, 0] + 1j * (xy[:, 1] * lat.tau.imag)
        zs = np.concatenate([zs, z[lat.distance_to_lattice(z) > 10 * weierstrass.POLE_GUARD]])
    X, Y = weierstrass.wp(lat, zs), weierstrass.wp_prime(lat, zs)
    res = weierstrass.eisenstein(lat).cubic_residual(X, Y)
    rows = zip(zs.real.tolist(), zs.imag.tolist(), X.tolist(), Y.tolist(),
               [1.0] * len(zs), res.tolist())
    worst = float(max(res, default=0.0))
    trailer = [f"# max_ode_residual = {worst!r}", f"# pass = {worst <= 1e-6}"]
    _write(_csv(config, ["z_re", "z_im", "X", "Y", "Z", "residual"], rows, trailer),
           args.out)
    return PASS if worst <= 1e-6 else FAIL


def cmd_hilbert(args, config: RunConfig) -> int:
    from . import coordring

    degrees = tuple(int(d) for d in args.degrees.split(",")) if args.degrees else ()
    ring = coordring.GradedRingPresentation(args.nvars, degrees)
    lo, hi = _parse_range(args.m)
    rows = [(m, coordring.hilbert_function(ring, m)) for m in range(lo, hi + 1)]
    dim = coordring.variety_dim(ring)
    trailer = [f"# variety_dim = {dim}"]
    _write(_csv(config, ["m", "dim"], rows, trailer), args.out)
    return PASS


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    lo = int(lo)
    hi = int(hi) if sep else lo
    if lo > hi:
        raise UsageError(f"empty degree range {text!r}: {lo} > {hi}")
    return lo, hi


def cmd_moment_map(args, config: RunConfig) -> int:
    from . import gitquot

    weights = tuple(int(w) for w in args.weights.split(","))
    action = gitquot.LinearAction.from_weights(weights)
    inv = _weight_invariants(action)
    report = gitquot.kirwan_correspondence_check(
        action, inv, n_samples=args.samples, tol=config.zero_level_tol, seed=config.seed)
    ok = report.get("equivalence_holds")
    payload = {"weights": list(weights), "report": report,
               "invariants": [str(F) for F in (inv.polys if inv else ())]}
    _write(_json_report(config, payload), args.out)
    if ok is None:
        return PASS  # nothing decidable; contract behavior, not a failure
    return PASS if (ok and report["zero_level_all_semistable"]) else FAIL


def _weight_invariants(action):
    """Certified monomial invariants of a diagonal gitquot.LinearAction, by
    weight search.

    Monomials X^a with sum(a_i w_i) = 0 and total degree <= 4 are invariant;
    keeps each that no kept one divides (weights (-1,0,1): X1 and X0 X2).
    Returns None when there are none (e.g. all weights of one sign)."""
    from . import gitquot
    from .poly import Polynomial, monomials_of_degree

    weights = action.weights
    kept = []
    for deg in range(1, 5):
        for mono in monomials_of_degree(len(weights), deg):
            if (sum(e * w for e, w in zip(mono, weights)) == 0
                    and not any(all(a <= b for a, b in zip(k, mono)) for k in kept)):
                kept.append(mono)
    if not kept:
        return None
    return gitquot.InvariantSet.certified([Polynomial.monomial(len(weights), a) for a in kept], action)


def cmd_bt_converge(args, config: RunConfig) -> int:
    from .btquant import (build_quadrature, dirac_table, doubling_levels, norm_asymptotics,
                          product_table, standard_family, tuynman_residual)

    family = standard_family()
    try:
        f = family[args.f]
        g = family[args.g] if args.g else None
    except KeyError as exc:
        raise UsageError(f"unknown test function {exc}; choose from {sorted(family)}")
    if g is None and args.check in ("dirac", "c1"):
        raise UsageError(f"--g is required for the {args.check} check")
    levels = doubling_levels(args.m_min, args.m_max)
    quad = build_quadrature(max(levels))

    if args.check == "norm":
        data = norm_asymptotics(f, levels, quad=quad)
        rows = [(m, nrm) for (m, nrm, _) in data["rows"]]
        slope = data["gap_slope"]
        bound_ok = all(nrm <= data["sup_norm"] + 1e-8 for (_, nrm) in rows)
        ok = bound_ok and slope is not None and abs(slope + 1.0) <= 0.15
        trailer = [f"# sup_norm = {data['sup_norm']!r}",
                   f"# gap_slope = {slope!r}",
                   f"# upper_bound_ok = {bound_ok}"]
    elif args.check == "dirac":
        table = dirac_table(f, g, levels, quad=quad)
        rows = table.rows()
        slope_ok = table.slope is not None and abs(table.slope + 1.0) <= 0.3
        ratio = table.values[0] / table.values[-1]
        ratio_ok = ratio > 8.0
        ok = slope_ok and ratio_ok
        trailer = [f"# slope = {table.slope!r}",
                   f"# first_over_final = {ratio!r}",
                   f"# slope_ok = {slope_ok}", f"# ratio_ok = {ratio_ok}"]
    elif args.check == "product":
        table = product_table(f, g if g else f, levels, quad=quad)
        rows = table.rows()
        ok = table.slope is not None and abs(table.slope + 1.0) <= 0.3
        trailer = [f"# slope = {table.slope!r}"]
    elif args.check == "tuynman":
        rows = [(m, tuynman_residual(f, m, quad=quad)) for m in levels]
        ok = all(v <= 1e-6 for (_, v) in rows)
        trailer = []
    else:  # c1, argparse's fifth choice: the Dirac norm (see btquant.asymptotics)
        table = dirac_table(f, g, levels, quad=quad)
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
    from .btquant import build_quadrature, standard_family, tuynman_residual

    family = standard_family()
    levels = [int(m) for m in args.m.split(",")]
    quads = {m: build_quadrature(m) for m in levels}
    rows = [(name, m, tuynman_residual(family[name], m, quad=quads[m]))
            for name in args.f.split(",") for m in levels]
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
    p.add_argument("--tau", required=True,
                   help="lattice parameter as a Python complex, e.g. 2j or 0.5+0.866j")
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_weierstrass_embed)

    p = sub.add_parser("hilbert", help="graded dimensions of a coordinate ring")
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--degrees", default="",
                   help="comma-separated relation degrees (empty: full ring)")
    p.add_argument("--m", default="0..10", help="degree or lo..hi range")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("moment-map", help="moment map / stability report")
    p.add_argument("--weights", required=True, help="comma-separated integers")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_moment_map)

    p = sub.add_parser("bt-converge", help="semiclassical convergence tables")
    p.add_argument("--check", required=True,
                   choices=["norm", "dirac", "product", "tuynman", "c1"])
    p.add_argument("--f", required=True, help="test function name (e.g. x3)")
    p.add_argument("--g", help="second test function where applicable")
    p.add_argument("--m-min", type=int, default=4)
    p.add_argument("--m-max", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_bt_converge)

    p = sub.add_parser("tuynman-check", help="geometric-quantization identity check")
    p.add_argument("--f", default="x1,x3", help="comma-separated function names")
    p.add_argument("--m", default="2,4,8,16", help="comma-separated levels")
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
        ("projquant.btquant.quadrature", "InsufficientResolutionError"))
        if module in sys.modules)


if __name__ == "__main__":
    sys.exit(main())
