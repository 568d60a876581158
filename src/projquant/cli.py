"""Unified command-line front end.

Exit codes: 0 on success, 1 when a numeric check violates its threshold,
the numerics break down or memory runs out, 2 on usage errors.  All CSV output
carries a header row, '.' decimals and leading '# key = value' lines echoing
the configuration; JSON output embeds the same configuration under the
"config" key.  Identical configuration produces byte-identical output.
"""

from __future__ import annotations

import functools
import sys
import types

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
    import json

    payload = dict(payload)
    payload["config"] = config.to_dict()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fraction(text: str):
    from fractions import Fraction
    return Fraction(text)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _integers(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _levels(text: str) -> tuple[int, ...]:
    levels = tuple(int(part) for part in text.split(","))
    if min(levels) < 1:
        raise ValueError(text)
    return levels


def _lattice(text: str):
    from .weierstrass import Lattice
    return Lattice(complex(text))


def _degree_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    lo, hi = int(lo), int(hi if sep else lo)
    if lo > hi:
        raise ValueError(text)
    return range(lo, hi + 1)


def _check(text: str) -> str:
    if text not in ("norm", "dirac", "product", "tuynman", "c1"):
        raise ValueError(text)
    return text


# ---------------------------------------------------------------------------
# subcommand handlers: each imports what it uses, so a command loads no module
# that it does not need
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
    import math

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
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError(f"the {axis} window needs finite bounds, got [{lo}, {hi}]")
        # doubled bounds in range keep hi - lo, each midpoint and the scan's
        # fixed coordinate 0.5 * (c + c) finite
        if not (math.isfinite(lo + lo) and math.isfinite(hi + hi)):
            raise UsageError(f"the {axis} window needs bounds of magnitude at most "
                             f"{sys.float_info.max / 2!r}, got [{lo}, {hi}]")
        if lo == hi:
            raise UsageError(f"the {axis} window is empty: --{axis}min = --{axis}max = {lo}")
    xs = _linspace(args.xmin, args.xmax, args.resolution)
    ys = _linspace(args.ymin, args.ymax, args.resolution)
    pts, _ = _curve_scan(f.dehomogenize(2), xs, ys)  # plot plane is the chart X2 = 1
    _write(_csv(config, ["x", "y"], pts), args.out)
    return PASS


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num) in Python floats, bit for bit: node i
    is i * step + start (i / div * delta + start where step underflows to
    0), and the last node is stop."""
    div, delta = num - 1, stop - start
    step = delta / div
    nodes = [i * step + start if step else i / div * delta + start for i in range(num)]
    nodes[-1] = stop
    return nodes


def _curve_scan(affine, xs: list[float], ys: list[float]) -> tuple[list, int]:
    """The sorted points where the affine curve crosses or touches a grid
    line, and the most bisection steps any bracket took.

    Vertical grid lines, then horizontal ones: a node value of exactly 0 is
    a point (lo = hi), a sign change a bracket, halved until a step moves
    it no more, at most 60 times; an exact zero freezes its bracket at the
    midpoint.  The fixed coordinate of a line enters the bisection as
    0.5 * (c + c), which is c, as cmd_curve_points keeps c + c finite.
    Every value is the float fold of Polynomial.evaluate_array, bit for
    bit, through the code of _line_scanner."""
    values, roots_y = _line_scanner(affine, 1)
    _, roots_x = _line_scanner(affine, 0)
    grid = [values(x, ys) for x in xs]  # grid[i][j]: the value at (xs[i], ys[j])
    pts, most = [], 0
    for x, line in zip(xs, grid):
        x = 0.5 * (x + x)
        roots, steps = roots_y(x, ys, line)
        pts += [(x, y) for y in roots]
        most = max(most, steps)
    for y, line in zip(ys, zip(*grid)):
        y = 0.5 * (y + y)
        roots, steps = roots_x(y, xs, line)
        pts += [(x, y) for x in roots]
        most = max(most, steps)
    return sorted(pts), most


#: the scan along one grid line, with the names of Polynomial.line_source:
#: c the fixed coordinate, t the moving one, k<i> the bound numbers
_LINE_SCAN = """\
def scanner(k):
    {unpack}

    def values(c, ts):
        {setup}
        out = []
        for t in ts:
            out.append({expr})
        return out

    def roots(c, ts, vals):
        {setup}
        out, most = [], 0
        for i in range(len(ts) - 1):
            fa = vals[i]
            if fa == 0.0:
                lo = hi = ts[i]
            elif (fa < 0) != (vals[i + 1] < 0):
                lo, hi = ts[i], ts[i + 1]
            else:
                continue
            neg = fa < 0  # as every step keeps fa or takes an fm of its sign
            for step in range(1, 61):
                t = 0.5 * (lo + hi)
                fm = {expr}
                if fm == 0.0:
                    if neg:
                        fm = fa
                    if lo == hi == t and fm == fa:
                        break
                    lo = hi = t
                    fa = fm
                elif (fm < 0) != neg:
                    if hi == t:
                        break
                    hi = t
                else:
                    if lo == t and fm == fa:
                        break
                    lo, fa = t, fm
            out.append(0.5 * (lo + hi))
            most = max(most, step)
        return out, most

    return values, roots
"""


def _line_scanner(affine, moving: int):
    """values(c, ts) and roots(c, ts, vals) along the grid lines on which
    coordinate `moving` varies, with affine's numbers bound."""
    setup, expr, k = affine.line_source(("t", "c") if moving == 0 else ("c", "t"), moving)
    return _compiled(_LINE_SCAN.format(
        unpack="".join(f"k{i}, " for i in range(len(k))) + "= k" if k else "pass",
        setup="\n        ".join(setup) or "pass", expr=expr))(k)


@functools.cache
def _compiled(source: str):
    """The scanner that source defines, compiled once per process for each
    monomial structure; no input text reaches source."""
    namespace = {}
    exec(compile(source, "<curve-points line scan>", "exec"), namespace)
    return namespace["scanner"]


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
    from . import bands

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
    else:  # c1, the fifth --check choice: the Dirac norm (see btquant.asymptotics)
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
    from . import bands

    family = bands.family()
    functions = [(name, _test_function(family, name, "--f")) for name in args.f]
    rows = [(name, m, bands.tuynman_residual(f, m)) for name, f in functions for m in args.m]
    worst = max(res for (_, _, res) in rows)
    ok = worst <= 1e-6
    trailer = [f"# max_residual = {worst!r}", f"# pass = {ok}"]
    _write(_csv(config, ["f", "m", "residual"], rows, trailer), args.out)
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# the flag table and its parser
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a flag that must be given
_USAGE = "usage: projquant [--config CONFIG] {} [--flag value | --flag=value]..."
_OUT = {"--out": (str, None, "a file to write to instead of stdout")}
_Q = "a rational number such as 3/4"  # the help of each flag read in Q
_TOP = ("Projective geometry, torus embeddings, Berezin-Toeplitz quantization and moment-map "
        "checks.\nThe token after a flag is its value.", {"--config": (str, None, "config file")})

#: command -> (handler, help, flags), each flag -> (type, default, help); a
#: text default is read by the flag's type, like a given value, and a value
#: the type rejects is a usage error that names the flag and its help
COMMANDS = {
    "classify-cubic": (cmd_classify_cubic, "classify a Weierstrass plane cubic", {
        "--g2": (_fraction, REQUIRED, _Q), "--g3": (_fraction, REQUIRED, _Q), **_OUT}),
    "curve-points": (cmd_curve_points, "real locus of a plane curve as CSV", {
        "--poly": (str, None, "a homogeneous polynomial in X0, X1, X2, for the cubic of g2, g3"),
        "--g2": (_fraction, "0", _Q), "--g3": (_fraction, "0", _Q),
        "--xmin": (float, -2.0, "a float, a window bound"), "--xmax": (float, 2.0, "a float"),
        "--ymin": (float, -3.0, "a float, a window bound"), "--ymax": (float, 3.0, "a float"),
        "--resolution": (int, 201, "an integer, the grid nodes per axis"), **_OUT}),
    "weierstrass-embed": (cmd_weierstrass_embed, "embed a torus into P^2", {
        "--tau": (_lattice, REQUIRED, "a finite complex number, imaginary part > 0, such as 2j"),
        "--samples": (_positive_int, 50, "a positive integer, the points to embed"), **_OUT}),
    "hilbert": (cmd_hilbert, "graded dimensions of a coordinate ring", {
        "--nvars": (int, REQUIRED, "an integer, the number of variables"),
        "--degrees": (_integers, (), "comma-separated integers, the relation degrees"),
        "--m": (_degree_range, "0..10", "a degree or a range lo..hi with lo <= hi"), **_OUT}),
    "moment-map": (cmd_moment_map, "moment map / stability report", {
        "--weights": (_integers, REQUIRED, "comma-separated integers such as -1,1"),
        "--samples": (_positive_int, 200, "a positive integer, the sample points"), **_OUT}),
    "bt-converge": (cmd_bt_converge, "semiclassical convergence tables", {
        "--check": (_check, REQUIRED, "one of norm, dirac, product, tuynman, c1"),
        "--f": (str, REQUIRED, "a test function name such as x3"),
        "--g": (str, None, "a second test function name, for dirac, product and c1"),
        "--m-min": (_positive_int, 4, "a positive integer, the lowest level"),
        "--m-max": (_positive_int, 64, "a positive integer, the highest level"), **_OUT}),
    "tuynman-check": (cmd_tuynman_check, "geometric-quantization identity check", {
        "--f": (functools.partial(str.split, sep=","), "x1,x3", "comma-separated function names"),
        "--m": (_levels, "2,4,8,16", "comma-separated levels >= 1 such as 2,4,8"), **_OUT}),
}


def parse_args(argv):
    """The handler, config path and flag values of argv, read against COMMANDS;
    the token after a flag is its value.  -h/--help prints help and exits 0."""
    command, table, given, tokens = None, _TOP[1], {}, iter(argv)
    for token in tokens:
        flag, eq, text = token.partition("=")
        if token in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(PASS)
        if flag in table:
            given[flag] = text if eq else next(tokens, None)
            if given[flag] is None:
                _usage_error(command, f"argument {flag}: expected a value after it")
        elif command is None and token[:1] != "-":
            if token not in COMMANDS:
                _usage_error(None, f"unknown command {token!r}; choose from {', '.join(COMMANDS)}")
            command, table = token, COMMANDS[token][2]
        else:
            _usage_error(command, f"unknown argument {flag!r}; "
                                  f"{command or 'projquant'} takes {', '.join(table)}")
    if command is None:
        _usage_error(None, f"a command is required; choose from {', '.join(COMMANDS)}")
    args = types.SimpleNamespace(handler=COMMANDS[command][0], config=given.get("--config"))
    for flag, (kind, default, expected) in table.items():
        text = given.get(flag, default)
        if text is REQUIRED:
            _usage_error(command, f"argument {flag}: required")
        try:
            value = kind(text) if isinstance(text, str) else text
        except ZeroDivisionError:
            _usage_error(command, f"argument {flag}: zero denominator in {text!r}")
        except ValueError:
            _usage_error(command, f"argument {flag}: expected {expected}, got {text!r}")
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _help(command) -> str:
    """The usage line, then each flag, and at the top each command, with its help."""
    about, flags = COMMANDS[command][1:] if command else _TOP
    rows = [(f"{flag} {flag[2:].upper()}", text + (" (required)" if default is REQUIRED else
             f" (default {default})" if default not in (None, ()) else ""))
            for flag, (_, default, text) in flags.items()]
    rows += [(name, entry[1]) for name, entry in COMMANDS.items() if not command]
    width = max(len(name) for name, _ in rows) + 2
    lines = [f"  {name:<{width}}{text}" for name, text in rows]
    return "\n".join([_USAGE.format(command or "COMMAND"), "", about, "", *lines])


def _usage_error(command, message: str):
    sys.stderr.write(f"{_USAGE.format(command or 'COMMAND')}\nprojquant: error: {message}\n")
    raise SystemExit(USAGE)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        _usage_error(None, str(exc))
    try:
        return args.handler(args, config)
    except ArithmeticError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return FAIL
    except MemoryError as exc:
        print(f"error: out of memory: {exc!r}", file=sys.stderr)
        return FAIL
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
