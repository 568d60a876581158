"""The three benchmark workloads as lists of operations.

Every workload is a single closed-loop client: one operation is sent only
after the previous one finished.  An operation is a timed call into the
program (``run``) plus an untimed oracle (``check``) that compares the
output with an independent route.  A run repeats the op list in passes,
each in a fresh process; the inputs of a pass come only from the seed and
the pass index, so the op shapes (and the amount of work) stay fixed while
no two passes repeat a request.

* ``cli_readme``: the eight README commands, each a fresh
  ``python -m projquant.cli`` process, with a seed drawn for the pass in a
  ``--config`` file (it sets the torus and moment-map sample points).  This is what a
  command-line user pays per command, start-up included.
* ``bt_deep``: Berezin-Toeplitz library calls at a few large levels
  m in {32, 64, 96, 128}, in a seeded orthonormal frame of the sphere
  coordinates.  Dense assembly dominates; the geometry modules do no work,
  so this is their control.
* ``geometry_batch``: in-process curve scans, moment maps, torus
  embeddings, exact singularity tests and Hilbert functions.  Python scalar
  loops dominate and there is no Berezin-Toeplitz work, so this is the
  control for BT changes.

Failures in two documented defect classes are counted (they lower ok_frac
and raise ``failed``) but do not make the run incorrect: BT levels above
:data:`BT_VERIFIED_LEVEL`, where the dense assembly silently loses
precision, and torus embeddings that the program itself rejects with its
numeric-failure exit code 1 (the fixed-length q-series at small Im tau).
Any other failure marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

#: highest level at which the dense BT assembly is currently verified
BT_VERIFIED_LEVEL = 64
BT_LEVELS = (32, 64, 96, 128)

#: wall cap for one command-line process
CHILD_TIMEOUT_S = 120.0


@dataclass
class Op:
    """``check(output)`` returns (reason or None, honest) where honest marks a
    failure the program reported itself with its numeric-failure exit code.
    ``known`` marks an op inside a documented defect class."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], "tuple[str | None, bool]"]
    known: bool = False


@dataclass
class Child:
    rc: int
    out: str
    err: str
    seconds: float
    maxrss_mb: float


class Context:
    """Paths, child environment and tracing state shared by the ops."""

    def __init__(self, root: str, tmpdir: str, env: dict):
        self.root = root
        self.bench = os.path.dirname(os.path.abspath(__file__))
        self.tmpdir = tmpdir
        self.env = env
        self.traced = False         # command processes start through launch.py
        self.child_traces = []      # exported traces of traced child processes
        self.child_rss_mb = 0.0     # peak over command processes of the run

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.tmpdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def run_child(ctx: Context, argv, timeout: float = CHILD_TIMEOUT_S,
              preexec=None) -> Child:
    """Run a process to completion; its own rusage gives its peak RSS."""
    out_path = os.path.join(ctx.tmpdir, "child.out")
    err_path = os.path.join(ctx.tmpdir, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env,
                                cwd=ctx.root, preexec_fn=preexec)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     seconds, usage.ru_maxrss / 1024.0)


def call_cli(argv) -> tuple[int, str]:
    """projquant.cli.main in-process, stdout captured."""
    from projquant import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# cli_readme
# ---------------------------------------------------------------------------

README_COMMANDS = [
    ["classify-cubic", "--g2", "0", "--g3", "0"],
    ["curve-points", "--g2", "4", "--g3", "0", "--resolution", "201"],
    ["hilbert", "--nvars", "3", "--degrees", "3", "--m", "0..10"],
    ["weierstrass-embed", "--tau", "2j", "--samples", "50"],
    ["moment-map", "--weights=-1,1", "--samples", "200"],
    ["bt-converge", "--check", "norm", "--f", "x3", "--m-min", "4", "--m-max", "64"],
    ["bt-converge", "--check", "dirac", "--f", "x1", "--g", "x2"],
    ["tuynman-check", "--f", "x1,x3", "--m", "2,4,8,16"],
]


def _readme_check(cmd):
    name = cmd[0]

    def exit_ok(why, rc, expect=0):
        return why or (None if rc == expect else f"exit {rc}, README documents {expect}")

    def check(res: Child):
        out, rc = res.out, res.rc
        if name == "classify-cubic":
            data = json.loads(out)
            why = oracles.check_classify(Fraction(0), Fraction(0), data["class"])
            if not why and (data["discriminant"] != "0" or len(data["singular_points"]) != 1):
                why = "cusp report lacks discriminant 0 or its singular point"
            return exit_ok(why, rc), False
        if name == "moment-map":
            return oracles.check_moment_report((-1, 1), json.loads(out), rc), False
        trailer, _, rows = oracles.parse_csv(out)
        if name == "curve-points":
            pts = [(float(x), float(y)) for x, y in rows]
            want = oracles.curve_crossings(4, 0, np.linspace(-2, 2, 201),
                                           np.linspace(-3, 3, 201))
            return exit_ok(oracles.check_curve_points(4, 0, pts, want), rc), False
        if name == "hilbert":
            table = [(int(m), int(d)) for m, d in rows]
            why = (f"{len(table)} hilbert rows, expected 11" if len(table) != 11 else
                   oracles.check_hilbert_table(3, (3,), table, int(trailer["variety_dim"])))
            return exit_ok(why, rc), False
        if name == "weierstrass-embed":
            if len(rows) != 50:
                return f"{len(rows)} torus samples, expected 50", False
            return oracles.check_torus(2j, rows, rc)
        if name == "tuynman-check":
            table = [(int(r[1]), float(r[2])) for r in rows]
            why = (f"{len(table)} tuynman rows, expected 8" if len(table) != 8 else
                   next(filter(None, (oracles.check_tuynman(m, v) for m, v in table)), None))
            return exit_ok(why, rc), False
        table = [(int(m), float(v)) for m, v in rows]
        if [m for m, _ in table] != [4, 8, 16, 32, 64]:
            return "bt-converge levels differ from 4, 8, ..., 64", False
        if cmd[2] == "norm":
            whys, expect = (oracles.check_norm(m, v) for m, v in table), 0
        else:  # README documents exit 1: the ratio threshold is unreachable
            whys, expect = (oracles.check_dirac(m, v) for m, v in table), 1
        return exit_ok(next(filter(None, whys), None), rc, expect), False

    return check


def pass_rng(seed: int, index: int) -> np.random.Generator:
    """The random stream of one pass: fixed by the seed and the pass index."""
    return np.random.default_rng((seed, index))


def cli_readme(seed: int, index: int, ctx: Context) -> list[Op]:
    cfg = ctx.write("readme.cfg", f"seed = {pass_rng(seed, index).integers(2 ** 31)}\n")
    ops = []
    for cmd in README_COMMANDS:
        argv = ["--config", cfg] + cmd

        def run(argv=argv):
            if ctx.traced:
                trace_path = os.path.join(ctx.tmpdir, "child.trace.json")
                res = run_child(ctx, [sys.executable, os.path.join(ctx.bench, "launch.py"),
                                      trace_path] + argv)
                with open(trace_path, encoding="utf-8") as fh:
                    ctx.child_traces.append(json.load(fh))
            else:
                res = run_child(ctx, [sys.executable, "-m", "projquant.cli"] + argv)
            ctx.child_rss_mb = max(ctx.child_rss_mb, res.maxrss_mb)
            return res

        ops.append(Op(" ".join(cmd[:3]), run, _readme_check(cmd)))
    return ops


# ---------------------------------------------------------------------------
# bt_deep
# ---------------------------------------------------------------------------

def frame_functions(bt, frame: np.ndarray):
    """y_i = sum_j R_ij x_j: the sphere coordinates of a rotated frame."""
    fam = bt.standard_family()
    xs = [fam["x1"], fam["x2"], fam["x3"]]

    def combo(row, attr):
        parts = [(float(c), getattr(x, attr)) for c, x in zip(row, xs)]
        return lambda z: sum(c * fn(z) for c, fn in parts)

    return [bt.SmoothFunction(f"y{i + 1}", fn=combo(row, "fn"),
                              at_infinity=float(sum(c * x.at_infinity for c, x in zip(row, xs))),
                              dz=combo(row, "dz"), dzbar=combo(row, "dzbar"),
                              lap=combo(row, "lap"))
            for i, row in enumerate(frame)]


def bt_deep(seed: int, index: int, ctx: Context) -> list[Op]:
    from projquant import btquant as bt

    # norm_asymptotics fits a slope even to a single level; that is not a failure
    warnings.filterwarnings("ignore", message="Polyfit may be poorly conditioned")

    # The seed turns the frame about the x3 axis.  The product quadrature is
    # symmetric under such turns, so each op's verdict (including the broken
    # levels' failures) is the same for every seed; a general rotation would
    # make the failing set, and ok_frac, depend on the seed.
    rng = pass_rng(seed, index)
    y = frame_functions(bt, oracles.z_rotation(rng.uniform(0.0, 2.0 * np.pi)))
    f, g = ((y[1], y[2]), (y[2], y[0]))[rng.integers(2)]  # cyclic: {f, g} = 2 * third
    b, c = (int(i) for i in rng.integers(0, 2, size=2))   # equatorial axes
    ops = []
    for m in BT_LEVELS:
        known = m > BT_VERIFIED_LEVEL
        prod_ref = oracles.product_closed_form(m)
        ops += [
            Op(f"norm y3 m={m}",
               lambda m=m: bt.norm_asymptotics(y[2], [m])["rows"][0][1],
               lambda v, m=m: (oracles.check_norm(m, v), False), known),
            Op(f"spectrum y{b + 1} m={m}",
               lambda m=m: bt.toeplitz(y[b], m).mat,
               lambda t, m=m: (oracles.check_spectrum(m, t), False), known),
            Op(f"dirac {f.name},{g.name} m={m}",
               lambda m=m: bt.dirac_residual(f, g, m),
               lambda v, m=m: (oracles.check_dirac(m, v), False), known),
            Op(f"product {f.name},{g.name} m={m}",
               lambda m=m: bt.product_residual(f, g, m),
               lambda v, m=m, r=prod_ref: (oracles.check_product(m, v, r), False), known),
            Op(f"tuynman y{c + 1} m={m}",
               lambda m=m: bt.tuynman_residual(y[c], m),
               lambda v, m=m: (oracles.check_tuynman(m, v), False), known),
        ]
    return ops


# ---------------------------------------------------------------------------
# geometry_batch
# ---------------------------------------------------------------------------

#: diagonal circle actions with certified invariants of degree <= 4; fixed,
#: like the curve shapes below, so that the seed moves the inputs but not
#: the amount of work
WEIGHTS = [(-1, 1), (-1, 2), (-1, 1, 1)]
CURVES = [(Fraction(4), Fraction(0)), (Fraction(2), Fraction(1)), (Fraction(3), Fraction(-1))]


def _fraction(rng, lo: int, hi: int, den: int = 4) -> Fraction:
    return Fraction(int(rng.integers(lo * den, hi * den + 1)), int(rng.integers(1, den + 1)))


def _curve_op(base, rng) -> Op:
    g2, g3 = (c + Fraction(int(rng.integers(-8, 9)), 40) for c in base)
    argv = ["curve-points", f"--g2={g2}", f"--g3={g3}", "--resolution", "81"]
    want = oracles.curve_crossings(g2, g3, np.linspace(-2, 2, 81), np.linspace(-3, 3, 81))

    def check(res):
        rc, out = res
        _, _, rows = oracles.parse_csv(out)
        pts = [(float(x), float(yv)) for x, yv in rows]
        return oracles.check_curve_points(g2, g3, pts, want) or (
            None if rc == 0 else f"exit {rc}"), False

    return Op(f"curve-points g2={g2} g3={g3}", lambda: call_cli(argv), check)


def _moment_op(weights, cfg) -> Op:
    wtext = ",".join(str(w) for w in weights)
    argv = ["--config", cfg, "moment-map", f"--weights={wtext}", "--samples", "60"]

    def check(res):
        rc, out = res
        return oracles.check_moment_report(weights, json.loads(out), rc), False

    return Op(f"moment-map {wtext}", lambda: call_cli(argv), check)


def _orbit_op(weights, rng) -> Op:
    from projquant import gitquot

    n = len(weights)
    points = []
    for _ in range(48):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        x[rng.random(n) < 0.3] = 0.0
        if not np.any(x):
            x[0] = 1.0
        points.append(x)

    def run():
        action = gitquot.LinearAction.from_weights(weights)
        return [gitquot.orbit_meets_zero_level(action, x, tol=1e-9) for x in points]

    def check(results):
        for x, (met, witness) in zip(points, results):
            wit = None if witness is None else np.asarray(
                getattr(witness, "coords", witness), dtype=complex)
            why = oracles.check_zero_level(weights, x, bool(met), wit, 1e-9)
            if why:
                return why, False
        return None, False

    return Op(f"zero-level search {weights}", run, check)


def _torus_op(tau: complex, cfg) -> Op:
    argv = ["--config", cfg, "weierstrass-embed", f"--tau={tau.real!r}{tau.imag:+}j",
            "--samples", "50"]

    def check(res):
        rc, out = res
        _, _, rows = oracles.parse_csv(out)
        return oracles.check_torus(tau, rows, rc)

    return Op(f"weierstrass-embed tau={tau:.3f}", lambda: call_cli(argv), check)


def _singular_op(kind: str, rng) -> Op:
    from projquant import projgeo

    if kind == "nodal":
        c = _fraction(rng, -2, 2, 3) or Fraction(1)
        g2, g3 = 12 * c * c, -8 * c ** 3
        points = [(c, Fraction(0), Fraction(1)), (Fraction(0), Fraction(1), Fraction(0))]
    elif kind == "cuspidal":
        g2 = g3 = Fraction(0)
        points = [(Fraction(0), Fraction(0), Fraction(1)),
                  (Fraction(0), Fraction(1), Fraction(0))]
    else:  # smooth: put a chosen rational point on the curve
        x0, y0 = _fraction(rng, -2, 2), _fraction(rng, 1, 3)
        g2 = _fraction(rng, -3, 3)
        g3 = 4 * x0 ** 3 - g2 * x0 - y0 * y0
        points = [(x0, y0, Fraction(1)), (x0, -y0, Fraction(1))]

    def run():
        V = projgeo.VarietyPresentation([projgeo.weierstrass_cubic(g2, g3)], claimed_dim=1)
        verdict = projgeo.cubic_classify(g2, g3).value
        return verdict, [projgeo.is_singular_point(V, projgeo.ProjPoint(p)) for p in points]

    def check(res):
        verdict, sing = res
        why = oracles.check_classify(g2, g3, verdict)
        for p, s in zip(points, sing):
            why = why or oracles.check_singular(g2, g3, p, s)
        return why, False

    return Op(f"singular {kind} g2={g2} g3={g3}", run, check)


def _hilbert_op(rng) -> Op:
    from projquant import coordring
    from projquant.poly import Polynomial

    nvars, d = int(rng.integers(3, 5)), int(rng.integers(2, 5))
    m = d + int(rng.integers(0, 7))
    terms = {}
    for _ in range(4):
        cut = np.sort(rng.integers(0, d + 1, size=nvars - 1))
        mono = tuple(np.diff(np.concatenate([[0], cut, [d]])).astype(int))
        terms[mono] = int(rng.integers(1, 6)) * int(rng.choice([-1, 1]))
    f = Polynomial(nvars, terms)

    def run():
        ring = coordring.GradedRingPresentation.hypersurface(f)
        return (coordring.hilbert_function(ring, m),
                coordring.graded_basis_hypersurface(f, m))

    def check(res):
        hf, basis = res
        return oracles.check_hilbert(nvars, d, m, hf, basis), False

    return Op(f"hilbert n={nvars} d={d} m={m}", run, check)


def geometry_batch(seed: int, index: int, ctx: Context) -> list[Op]:
    rng = pass_rng(seed, index)
    cfg = ctx.write("geometry.cfg", f"seed = {rng.integers(2 ** 31)}\n")
    # The mix is not drawn from observed traffic.  Its counts put the torus
    # embeddings in the middle of the latency order (9 faster ops, 9 slower),
    # so op_p50_ms tracks weierstrass-embed by design; the other layers move
    # wall_s and op_tail_ms, and op_p50_ms only if they reorder the ops.
    ops = [_singular_op(k, rng) for k in ("nodal", "nodal", "cuspidal", "smooth", "smooth")]
    ops += [_hilbert_op(rng) for _ in range(4)]
    # Im tau near 0.1 always fails the program's own residual bound and near 2
    # always passes; in between the verdict depends on the sample points
    # (absolute residual near poles), which would make ok_frac seed-dependent
    taus = [complex(rng.uniform(-0.5, 0.5), 0.1 * rng.uniform(0.9, 1.1)) for _ in range(3)]
    taus += [complex(rng.uniform(-0.5, 0.5), rng.uniform(1.75, 2.0)) for _ in range(3)]
    ops += [_torus_op(t, cfg) for t in taus]
    ops += [_orbit_op(w, rng) for w in WEIGHTS]
    ops += [_moment_op(w, cfg) for w in WEIGHTS]
    ops += [_curve_op(base, rng) for base in CURVES]
    return ops


#: workload -> (op-list factory, passes per 20 s of --seconds).  A run of S
#: seconds makes round(passes * S / 20) whole passes, each a fresh process;
#: at S = 20 that is about 20 to 35 seconds of passes on a 2-core x86
#: machine at the seed commit.  Every run of a workload then times ops of
#: the same shapes, and the tail percentile lands in the same latency
#: cluster: at S = 20 among the second-slowest command's samples
#: (cli_readme), inside the m = 128 ops (bt_deep) and inside the
#: slowest curve scan's samples (geometry_batch).
WORKLOADS = {"cli_readme": (cli_readme, 8), "bt_deep": (bt_deep, 3),
             "geometry_batch": (geometry_batch, 12)}
