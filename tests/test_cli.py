import json
import math
import os
from fractions import Fraction
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from projquant import cli
from projquant.btquant import InsufficientResolutionError, bands
from projquant.cli import main
from projquant.config import RunConfig, load_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def comments(text):
    return [l for l in text.splitlines() if l.startswith("#")]


# -- classify-cubic ---------------------------------------------------------------

def test_classify_cuspidal(capsys):
    code, out = run_cli(capsys, "classify-cubic", "--g2", "0", "--g3", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "cuspidal"
    assert payload["singular_points"] == ["(0 : 0 : 1)"]
    assert "config" in payload


def test_classify_smooth_and_nodal(capsys):
    code, out = run_cli(capsys, "classify-cubic", "--g2", "4", "--g3", "0")
    assert code == 0 and json.loads(out)["class"] == "smooth"
    code, out = run_cli(capsys, "classify-cubic", "--g2", "3", "--g3", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "nodal"
    assert payload["singular_points"] == ["(-1/2 : 0 : 1)"]


# -- curve-points -------------------------------------------------------------------

def test_curve_points_nodal_two_branches(capsys):
    # nodal Y^2 Z = 4 X^2 (X + Z): near the origin the branches are y = +-2x
    code, out = run_cli(capsys, "curve-points",
                        "--poly", "X1^2*X2 - 4*X0^3 - 4*X0^2*X2",
                        "--xmin", "-0.5", "--xmax", "0.5",
                        "--ymin", "-1.5", "--ymax", "1.5",
                        "--resolution", "201")
    assert code == 0
    _, rows = csv_rows(out)
    pts = np.array([[float(a), float(b)] for a, b in rows])
    near = pts[(np.abs(pts[:, 0]) < 0.3) & (np.abs(pts[:, 0]) > 0.02)]
    up = near[np.abs(near[:, 1] - 2 * near[:, 0] * np.sqrt(1 + near[:, 0])) < 1e-6]
    dn = near[np.abs(near[:, 1] + 2 * near[:, 0] * np.sqrt(1 + near[:, 0])) < 1e-6]
    assert len(up) > 10 and len(dn) > 10  # two distinct chains through the node
    assert len(up) + len(dn) == len(near)


def test_curve_points_empty_window(capsys):
    code, out = run_cli(capsys, "curve-points", "--g2", "4", "--g3", "0",
                        "--xmin", "5", "--xmax", "6", "--ymin", "5", "--ymax", "6",
                        "--resolution", "41")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["x", "y"]
    assert rows == []


@pytest.mark.parametrize("resolution", ["0", "1"])
def test_curve_points_needs_two_nodes_per_axis(resolution, capsys):
    # fewer than 2 grid nodes per axis would print a header with no points
    assert main(["curve-points", "--g2", "4", "--g3", "0", "--resolution", resolution]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--resolution" in captured.err


@pytest.mark.parametrize("bounds, axis", [
    (["--xmin", "1", "--xmax", "1"], "x"),
    (["--ymin", "-0.5", "--ymax", "-0.5"], "y"),
    (["--xmin", "nan"], "x"),
    (["--xmax", "inf"], "x"),
    (["--ymin", "inf"], "y"),
    (["--ymax=-inf"], "y"),
])
def test_curve_points_rejects_degenerate_windows(bounds, axis, capsys):
    # equal bounds give no grid cell and repeat each crossing once per
    # collapsed grid line; a non-finite bound gives nan rows
    assert main(["curve-points", "--g2", "4", "--g3", "0", "--resolution", "5", *bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"the {axis} window" in captured.err


def test_curve_points_reversed_window_is_valid(capsys):
    code, out = run_cli(capsys, "curve-points", "--g2", "4", "--g3", "0",
                        "--xmin", "2", "--xmax", "-2", "--resolution", "41")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows and all(-2.0 <= float(x) <= 2.0 for x, _ in rows)


@pytest.mark.parametrize("argv", [
    ["classify-cubic", "--g2", "1/0", "--g3", "0"],
    ["curve-points", "--g2", "4", "--g3", "3/0"],
    ["curve-points", "--poly", "1/0*X0"],
])
def test_zero_denominator_is_a_usage_error(argv, capsys):
    try:  # argparse exits on a flag its type rejects; main returns on a bad --poly
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "zero denominator" in captured.err and "Traceback" not in captured.err



def _scalar_curve_scan(f, xs, ys):
    """Reference route: one Polynomial.evaluate call per point and a plain
    scalar bisection per bracket, scanning the same grid lines in the same
    order.  Returns the sorted points and the number of exact node zeros."""
    affine = f.dehomogenize(2)

    def val(x, y):
        return affine.evaluate((complex(x), complex(y))).real

    def bisect(g, a, b, fa):
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = g(mid)
            if fm == 0.0:
                return mid
            if (fa < 0) != (fm < 0):
                b = mid
            else:
                a, fa = mid, fm
        return 0.5 * (a + b)

    pts, zeros = [], 0
    for fixed, steps, point in ((xs, ys, lambda c, t: (c, t)), (ys, xs, lambda c, t: (t, c))):
        for c in fixed:
            line = lambda t, c=c: val(*point(c, t))
            vals = [line(t) for t in steps]
            for k in range(len(steps) - 1):
                if vals[k] == 0.0:
                    pts.append(point(c, steps[k]))
                    zeros += 1
                elif (vals[k] < 0) != (vals[k + 1] < 0):
                    pts.append(point(c, bisect(line, steps[k], steps[k + 1], vals[k])))
    return sorted(pts), zeros


@pytest.mark.parametrize("argv, window, want_zeros", [
    # smooth cubic, discriminant 8 - 27 = -19
    (["--g2", "2", "--g3", "1"], (-2.0, 2.0, -3.0, 3.0), False),
    # nodal cubic y^2 = (x + 1)(2x - 1)^2
    (["--g2", "3", "--g3", "-1"], (-1.5, 1.5, -2.0, 2.0), False),
    # ellipse x^2 + 4 y^2 = 2
    (["--poly", "X0^2 + 4*X1^2 - 2*X2^2"], (-2.0, 2.0, -1.0, 1.0), False),
    # y^2 = 4x^3 - 4x vanishes at the grid nodes (-1, 0), (0, 0), (1, 0)
    (["--g2", "4", "--g3", "0"], (-2.0, 2.0, -3.0, 3.0), True),
    # no real point in the window
    (["--g2", "4", "--g3", "0"], (5.0, 6.0, -1.0, 1.0), False),
])
def test_curve_points_match_scalar_scan(capsys, argv, window, want_zeros):
    from projquant.poly import parse_polynomial
    from projquant.projgeo import weierstrass_cubic

    xmin, xmax, ymin, ymax = window
    res = 41
    code, out = run_cli(capsys, "curve-points", *argv, "--resolution", str(res),
                        f"--xmin={xmin}", f"--xmax={xmax}", f"--ymin={ymin}", f"--ymax={ymax}")
    assert code == 0
    if argv[0] == "--poly":
        f = parse_polynomial(argv[1], nvars=3)
    else:
        f = weierstrass_cubic(Fraction(argv[1]), Fraction(argv[3]))
    want, zeros = _scalar_curve_scan(f, np.linspace(xmin, xmax, res).tolist(),
                                     np.linspace(ymin, ymax, res).tolist())
    assert zeros > 0 or not want_zeros  # the exact-zero branch is exercised
    header, rows = csv_rows(out)
    assert header == ["x", "y"]
    assert rows == [[repr(x), repr(y)] for x, y in want]
    if window[0] == 5.0:
        assert rows == []


def _curve_points_steps(capsys, monkeypatch, argv):
    """The curve-points stdout and the number of bisection steps taken (one
    evaluate_array call per step, after the one on the grid)."""
    from projquant.poly import Polynomial

    calls = []
    real = Polynomial.evaluate_array

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(Polynomial, "evaluate_array", counting)
    code, out = run_cli(capsys, "curve-points", *argv)
    assert code == 0
    return out, len(calls) - 1


def _seeded_curves():
    rng = np.random.default_rng(27)
    return [[f"--g2={g2 + Fraction(int(rng.integers(-8, 9)), 40)}",
             f"--g3={g3 + Fraction(int(rng.integers(-8, 9)), 40)}", "--resolution", "81"]
            for g2, g3 in ((4, 0), (2, 1), (3, -1))]


@pytest.mark.parametrize("argv", [["--g2", "4", "--g3", "0", "--resolution", "201"],
                                  *_seeded_curves()])
def test_curve_points_fixed_point_exit_matches_60_steps(capsys, monkeypatch, argv):
    # a step that moves no bracket is repeated by every later one, so leaving
    # the loop there prints what all 60 steps print.  The README command's
    # brackets near y = 0 keep halving in ulps and never stop early.
    out, steps = _curve_points_steps(capsys, monkeypatch, argv)
    monkeypatch.setattr(np, "array_equal", lambda *a: False)  # no fixed point seen
    want, all_steps = _curve_points_steps(capsys, monkeypatch, argv)
    assert all_steps == 60
    assert out == want
    assert steps == 60 if argv[-1] == "201" else steps < 60


def test_weierstrass_embed_computes_eisenstein_once(capsys, monkeypatch):
    from projquant import weierstrass

    calls = []
    real = weierstrass.eisenstein

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(weierstrass, "eisenstein", counting)
    code, out = run_cli(capsys, "weierstrass-embed", "--tau", "2j", "--samples", "30")
    assert code == 0
    assert len(csv_rows(out)[1]) == 30
    assert len(calls) == 1

def _component_count(pts, link_scale):
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.hypot(*(pts[i] - pts[j])) < link_scale:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(pts))})


def test_curve_points_smooth_two_components(capsys):
    # g2 = 4, g3 = 0: discriminant 64 > 0, real locus = oval + unbounded branch
    code, out = run_cli(capsys, "curve-points", "--g2", "4", "--g3", "0",
                        "--xmin", "-1.6", "--xmax", "1.6",
                        "--ymin", "-2.5", "--ymax", "2.5",
                        "--resolution", "161")
    assert code == 0
    _, rows = csv_rows(out)
    pts = np.array([[float(a), float(b)] for a, b in rows])
    assert len(pts) > 100
    assert _component_count(pts, link_scale=0.12) == 2


# -- hilbert ---------------------------------------------------------------------------

def test_hilbert_plane_cubic(capsys):
    code, out = run_cli(capsys, "hilbert", "--nvars", "3", "--degrees", "3",
                        "--m", "0..10")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["m", "dim"]
    dims = [int(d) for _, d in rows]
    assert dims == [1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30]
    assert "# variety_dim = 1" in comments(out)


def test_hilbert_full_ring(capsys):
    code, out = run_cli(capsys, "hilbert", "--nvars", "2", "--m", "0..5")
    assert code == 0
    _, rows = csv_rows(out)
    assert [int(d) for _, d in rows] == [1, 2, 3, 4, 5, 6]


def test_hilbert_rejects_empty_range(capsys):
    # lo > hi would print a table with no rows
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--nvars", "3", "--m", "5..2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "5..2" in captured.err


def test_hilbert_rejects_zero_variables(capsys):
    assert main(["hilbert", "--nvars", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nvars = 0" in captured.err


# -- weierstrass-embed --------------------------------------------------------------------

def test_weierstrass_embed_has_no_cutoff_flag(capsys):
    # the nome-series length is derived from the reduced lattice
    with pytest.raises(SystemExit) as exc:
        main(["weierstrass-embed", "--tau", "2j", "--samples", "8", "--cutoff", "48"])
    assert exc.value.code == 2
    assert "--cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["weierstrass-embed", "--tau", "2j", "--samples", "0"],
    ["moment-map", "--weights=-1,1", "--samples", "-5"],
])
def test_samples_must_be_positive(argv, capsys):
    # zero samples would pass the torus gate vacuously, and a negative
    # count would run the coordinate fixed points alone
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_weierstrass_embed_samples_follow_single_point_draws(tmp_path, capsys):
    # the samples are the stream of one (x, y) pair of draws per point
    from projquant.weierstrass import POLE_GUARD, Lattice

    for tau, samples, seed in ((2j, 50, 0), (0.3 + 0.1j, 17, 5), (1e-3j, 9, 2)):
        lat = Lattice(tau)
        rng = random.Random(seed)
        want = []
        while len(want) < samples:
            z = complex(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98) * lat.tau.imag)
            if lat.distance_to_lattice(z) > 10 * POLE_GUARD:
                want.append(z)
        cfg = tmp_path / f"seed{seed}.cfg"
        cfg.write_text(f"seed = {seed}\n")
        _, rows = csv_rows(run_cli(capsys, "--config", str(cfg), "weierstrass-embed",
                                   f"--tau={tau!r}", "--samples", str(samples))[1])
        assert [complex(float(r[0]), float(r[1])) for r in rows] == want


class _ScriptedUniform:
    """Stands in for the generator: uniform() hands out the scripted values
    in order and counts the calls."""

    def __init__(self, rows):
        self.values, self.calls = [v for row in rows for v in row], 0

    def uniform(self, low, high):
        self.calls += 1
        return self.values.pop(0)


def test_weierstrass_embed_block_draws_stop_at_last_accepted_point(capsys, monkeypatch):
    # (0, 0) is the lattice point 0 and is rejected; random draws almost never
    # are, so only a scripted stream shows the redraws and where they stop
    good = [(0.1 * k + 0.05, 0.37) for k in range(9)]
    script = [good[0], (0, 0), good[1], (0, 0), good[2], (0, 0), good[3], good[4], (0, 0),
              good[5], (0, 0), good[6], good[7], good[8]]
    fake = _ScriptedUniform(script + [(0.5, 0.5)] * 8)
    monkeypatch.setattr(random, "Random", lambda seed: fake)
    code, out = run_cli(capsys, "weierstrass-embed", "--tau", "2j", "--samples", "9")
    assert code == 0
    zs = [(float(r[0]), float(r[1])) for r in csv_rows(out)[1]]
    assert zs == [(x, 2 * y) for x, y in good]
    # two uniform calls per candidate, 9 kept and 5 rejected: nothing past good[8]
    assert fake.calls == 2 * len(script)
    assert len(fake.values) == 16


def test_weierstrass_embed(capsys):
    code, out = run_cli(capsys, "weierstrass-embed", "--tau", "2j",
                        "--samples", "8")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["z_re", "z_im", "X", "Y", "Z", "residual"]
    assert len(rows) == 8
    for row in rows:
        assert float(row[5]) < 1e-6
        complex(row[2].strip("()"))  # X parses back to a number
    assert any("# pass = True" in c for c in comments(out))


# -- moment-map -----------------------------------------------------------------------------

def test_moment_map_report(capsys):
    code, out = run_cli(capsys, "moment-map", "--weights=-1,1",
                        "--samples", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["equivalence_holds"] is True
    assert payload["report"]["quotient_dim"] == 0
    assert payload["invariants"] == ["X0*X1"]


@pytest.mark.parametrize("weights, invariant", [("-5,7", "X0^7*X1^5"), ("-9,11", "X0^11*X1^9"),
                                                ("-40,41", "X0^41*X1^40")])
def test_moment_map_invariants_past_degree_4(capsys, weights, invariant):
    # the smallest invariants have degree 12, 20 and 81: a degree cap of 4
    # left the report undecided, and a semistability threshold that shrank
    # with the degree read every full-support sample of (-40, 41) unstable
    code, out = run_cli(capsys, "moment-map", f"--weights={weights}")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"] == [invariant]
    assert payload["report"]["n_samples"] == 200
    assert payload["report"]["equivalence_holds"] is True
    assert payload["report"]["zero_level_all_semistable"] is True


def test_moment_map_tolerance_only_from_config(capsys):
    # the orbit verdicts are read off the moment map's limits: no flag sets a
    # tolerance for them (nor does the config, see the dead keys below)
    with pytest.raises(SystemExit) as exc:
        main(["moment-map", "--weights=-1,1", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_moment_map_no_invariants(capsys):
    code, out = run_cli(capsys, "moment-map", "--weights=1,1",
                        "--samples", "10")
    assert code == 0
    payload = json.loads(out)
    assert "not determined" in payload["report"]["verdict"]


# -- bt-converge / tuynman-check ---------------------------------------------------------------

def test_bt_converge_norm(capsys):
    code, out = run_cli(capsys, "bt-converge", "--check", "norm", "--f", "x3",
                        "--m-min", "4", "--m-max", "64")
    assert code == 0
    _, rows = csv_rows(out)
    for m_str, v_str in rows:
        m = int(m_str)
        assert abs(float(v_str) - m / (m + 2)) < 1e-8
    assert any("# pass = True" in c for c in comments(out))


def test_bt_converge_dirac_reports_honestly(capsys):
    # the endpoint ratio is exactly 7.5625 < 8, so the check must fail
    code, out = run_cli(capsys, "bt-converge", "--check", "dirac",
                        "--f", "x1", "--g", "x2", "--m-min", "4", "--m-max", "64")
    assert code == 1
    assert any("# slope_ok = True" in c for c in comments(out))
    assert any("# ratio_ok = False" in c for c in comments(out))


def test_bt_converge_product(capsys):
    code, out = run_cli(capsys, "bt-converge", "--check", "product",
                        "--f", "x3", "--m-min", "4", "--m-max", "64")
    assert code == 0


def test_bt_converge_c1_reports_honestly(capsys):
    # monotone decay holds, but the 5%-of-first threshold is unreachable
    # (the antisymmetrized residual is exactly the commutator residual)
    code, out = run_cli(capsys, "bt-converge", "--check", "c1",
                        "--f", "x1", "--g", "x2", "--m-min", "4", "--m-max", "64")
    assert code == 1
    assert any("# monotone_from_8 = True" in c for c in comments(out))
    assert any("# final_under_5pct_of_first = False" in c for c in comments(out))


def test_bt_converge_tuynman(capsys):
    code, out = run_cli(capsys, "bt-converge", "--check", "tuynman",
                        "--f", "x3", "--m-min", "2", "--m-max", "16")
    assert code == 0
    _, rows = csv_rows(out)
    assert all(float(v) <= 1e-6 for _, v in rows)


def test_tuynman_check_command(capsys):
    code, out = run_cli(capsys, "tuynman-check")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["f", "m", "residual"]
    assert len(rows) == 8  # x1 and x3 at m in {2,4,8,16}


@pytest.mark.parametrize("check, pair, slope_key", [
    ("norm", ["--f", "x3"], "gap_slope"),
    ("dirac", ["--f", "x1", "--g", "x2"], "slope"),
])
def test_bt_converge_single_level_has_no_slope(capsys, check, pair, slope_key):
    # one level leaves no line to fit: the slope is None, with no warning,
    # and the check still fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "bt-converge", "--check", check, *pair,
                            "--m-min", "16", "--m-max", "16")
    assert code == 1
    assert f"# {slope_key} = None" in comments(out)
    assert "# pass = False" in comments(out)


@pytest.mark.parametrize("argv, key", [
    (["--check", "dirac", "--f", "x3", "--g", "x3sq"], "first_over_final"),
    (["--check", "product", "--f", "x3", "--g", "one"], "slope"),
])
def test_commuting_pairs_print_exact_zeros(capsys, argv, key):
    # both operators are diagonal (T_one is the identity), so every residual
    # is exactly 0.0: no logarithm and no ratio, printed as None, and the
    # gate fails as it always did for these pairs
    code, out = run_cli(capsys, "bt-converge", *argv)
    assert code == 1
    _, rows = csv_rows(out)
    assert [v for _, v in rows] == ["0.0"] * 5
    assert f"# {key} = None" in comments(out)
    assert "# pass = False" in comments(out)


def test_unknown_function_rejected(capsys):
    # both commands look the names up the same way: exit 2, an error naming
    # the bad name and the family, nothing on stdout
    choices = "choose from ['one', 'x1', 'x1x2', 'x2', 'x3', 'x3sq']"
    for argv, name, flag in [(["bt-converge", "--check", "norm", "--f", "nope"], "'nope'", "f"),
                             (["bt-converge", "--check", "dirac", "--f", "x1", "--g", "nope"],
                              "'nope'", "g"),
                             (["tuynman-check", "--f", "x1,nope", "--m", "2"], "'nope'", "f"),
                             (["tuynman-check", "--f", "nope"], "'nope'", "f"),
                             (["tuynman-check", "--f", ","], "''", "f")]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown test function {name} for --{flag}; {choices}\n"


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("SVD did not converge"),
                                 InsufficientResolutionError("profiles are not finite")])
def test_numeric_failure_exits_1(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    # the handler looks the function up in btquant.bands when it runs
    monkeypatch.setattr(bands, "op_norm", broken)
    code = main(["bt-converge", "--check", "norm", "--f", "x3", "--m-max", "8"])
    assert code == 1
    assert f"error: numeric failure: {exc}" in capsys.readouterr().err


def _capped_to_256_mb():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


@pytest.mark.parametrize("argv, check", [
    (["--check", "norm", "--f", "x3", "--m-min", "4096", "--m-max", "4096"],
     lambda v: abs(v - 4096 / 4098) <= 2 * math.ulp(4096 / 4098)),
    (["--check", "dirac", "--f", "x1", "--g", "x3sq", "--m-min", "2048", "--m-max", "2048"],
     math.isfinite),
])
def test_large_levels_fit_in_256_mb(argv, check):
    # the bands take O(m) memory: this child's address space is capped at
    # 256 MB, where the quadrature route's rule alone needed gigabytes; one
    # level leaves no slope, so both gates fail with exit 1
    proc = subprocess.run([sys.executable, "-m", "projquant.cli", "bt-converge", *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=120,
                          preexec_fn=_capped_to_256_mb)
    assert proc.returncode == 1 and proc.stderr == ""
    _, rows = csv_rows(proc.stdout)
    assert len(rows) == 1 and check(float(rows[0][1]))
    assert "# pass = False" in comments(proc.stdout)


# -- config and determinism ----------------------------------------------------------------------

def _child_env():
    # the child imports the package this suite imports, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_unknown_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "projquant.cli", "hilbert", "--nvars", "3",
         "--bogus-flag"],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 2


@pytest.mark.parametrize("tau, code, message", [
    # an infinite Im tau leaves no finite distance to the lattice, so the
    # sample loop would accept no point
    ("1+infj", 2, "argument --tau: expected a finite complex number"),
    ("inf+1j", 2, "argument --tau: expected a finite complex number"),
    ("nan+1j", 2, "argument --tau: expected a finite complex number"),
    # lam = tau, and lam^-6 = 1e360 overflows
    ("1e-60j", 1, "error: numeric failure: tau = 1e-60j: g3, g2 wp and wp^3 scale as lam^-6"),
    # lam^-6 is a float, but g3 and g2 wp are not
    ("5e-52j", 1, "error: numeric failure: tau = 5e-52j: g3, g2 wp and wp^3 scale as lam^-6"),
    ("1.1e-51j", 1, "error: numeric failure: tau = 1.1e-51j: g3, g2 wp and wp^3 scale as lam^-6"),
    # 2^-30 + 2^-60 i: every point is within 1e-9 of the lattice, so no
    # sample would clear the pole guard and the draw loop would not end
    ("9.313225746154785e-10+8.673617379884035e-19j", 1,
     "error: numeric failure: tau = (9.313225746154785e-10+8.673617379884035e-19j): "
     "covering radius"),
])
def test_weierstrass_embed_rejects_a_tau_it_cannot_handle(tau, code, message):
    # a child process with a timeout, so a tau that stalls the sample loop
    # fails this test instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "projquant.cli", "weierstrass-embed", f"--tau={tau}",
         "--samples", "5"], capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == code and proc.stdout == ""
    assert message in proc.stderr and "Traceback" not in proc.stderr
    if code == 2:
        assert repr(tau) in proc.stderr


# what a child process has imported after one command: a module it does not
# need costs start-up in every process that runs the command
_CHILD_MODULES = """
import contextlib, io, json, sys
from projquant.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
print(json.dumps([rc, sorted(sys.modules)]))
"""


#: what the band route must not load: the dense BT route and numpy
_DENSE_BT = {"numpy", "projquant.btquant.quadrature", "projquant.btquant.sections",
             "projquant.btquant.operators", "projquant.btquant.chart",
             "projquant.btquant.asymptotics"}


@pytest.mark.parametrize("argv, code, absent", [
    (["--help"], 0, {"numpy"}),
    (["classify-cubic", "--g2", "0", "--g3", "0"], 0, {"numpy"}),
    (["hilbert", "--nvars", "3", "--degrees", "3", "--m", "0..10"], 0, {"numpy"}),
    (["hilbert", "--bogus-flag"], 2, {"numpy"}),
    (["weierstrass-embed", "--tau", "2j", "--samples", "5"], 0,
     {"numpy", "projquant.btquant", "projquant.gitquot", "projquant.projgeo"}),
    (["moment-map", "--weights=-1,1", "--samples", "20"], 0,
     {"numpy", "projquant.btquant", "projquant.weierstrass"}),
    *[(["bt-converge", "--check", check, "--f", "x1", "--g", "x3sq", "--m-max", "16"], code,
       _DENSE_BT) for check, code in
      (("norm", 1), ("dirac", 1), ("product", 1), ("tuynman", 0), ("c1", 1))],
    (["tuynman-check"], 0, _DENSE_BT),
])
def test_commands_import_only_what_they_use(argv, code, absent):
    proc = subprocess.run([sys.executable, "-c", _CHILD_MODULES, *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    rc, modules = json.loads(proc.stdout)
    assert rc == code
    assert absent.isdisjoint(modules)


@pytest.mark.parametrize("point", ["(Fraction(0), Fraction(0))", "(0.0, 0.0)"],
                         ids=["exact", "float"])
def test_exact_zariski_dimension_loads_no_numpy(point):
    # a float point is lifted exactly, so it takes the same numpy-free route
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; from fractions import Fraction; "
         "from projquant.poly import parse_polynomial; "
         "from projquant.projgeo import zariski_tangent_dim; "
         "d = zariski_tangent_dim([parse_polynomial('X1^2 - 4 X0^3 - 4 X0^2', 2)], "
         f"{point}); print(json.dumps([d, 'numpy' in sys.modules]))"],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert json.loads(proc.stdout) == [2, False]


def _loaded_after(code):
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys; {code}; print(json.dumps(sorted("
         "m for m in sys.modules if m.split('.')[0] in ('numpy', 'projquant'))))"],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    return set(json.loads(proc.stdout))


def test_band_module_loads_no_numpy():
    loaded = _loaded_after("import projquant.btquant.bands")
    assert "projquant.btquant.bands" in loaded and _DENSE_BT.isdisjoint(loaded)


def test_first_dense_name_loads_the_whole_dense_route():
    # a caller that builds its symbols with standard_family, as the bt_deep
    # benchmark does before it times anything, pays every import of the
    # dense route there, and none on the first toeplitz or dirac_residual
    loaded = _loaded_after("from projquant import btquant; btquant.standard_family()")
    assert _DENSE_BT <= loaded


def test_first_dense_name_binds_every_dense_name():
    # a wrapper that scans the package's namespace after standard_family (as
    # perfbench's tracer does) finds every name of the dense route there, so
    # that it can rebind and later restore each one
    script = ("import json; from projquant import btquant as bt; bt.standard_family(); "
              "print(json.dumps(sorted(n for n, m in bt._ORIGIN.items() "
              "if m in bt._DENSE and n not in vars(bt))))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_bare_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, projquant; print(json.dumps(sorted("
         "m for m in sys.modules if m.split('.')[0] in ('numpy', 'projquant'))))"],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert json.loads(proc.stdout) == ["projquant"]


# the package's public names, by the module that defines them
PUBLIC = {
    "gaussrat": ["GaussianRational", "exact_rank"],
    "poly": ["Polynomial", "format_polynomial", "parse_polynomial"],
    "projgeo": ["CubicClass", "PointNotOnVarietyError", "ProjPoint", "VarietyPresentation",
                "cubic_classify", "is_on_variety", "is_singular_point", "jacobian", "rank_at",
                "veronese_square", "zariski_tangent_dim"],
    "coordring": ["GradedRingPresentation", "graded_basis_hypersurface",
                  "hilbert_function", "krull_dim", "variety_dim"],
    "weierstrass": ["EisensteinPair", "Lattice", "LatticePointError", "eisenstein",
                    "embed", "ode_residual", "wp", "wp_prime"],
}
SUBMODULES = ["btquant", "coordring", "gaussrat", "gitquot", "poly", "projgeo", "weierstrass"]

# the btquant package's exports: its submodules and the names they define
BTQUANT_ALL = [
    "ConvergenceTable", "GradientUnavailableError", "InsufficientResolutionError",
    "OperatorMatrix", "QuadratureRule", "SectionBasis", "SmoothFunction", "asymptotics",
    "bands", "build_quadrature", "chart", "dirac_residual", "dirac_table", "doubling_levels",
    "fit_loglog_slope", "geom_quant", "norm_asymptotics", "op_norm", "operators",
    "poisson", "poisson_function", "product_residual", "product_table", "quadrature",
    "sections", "standard_family", "toeplitz", "tuynman_residual",
]


def test_public_surface():
    import importlib

    import projquant

    star = {}
    exec("from projquant import *", star)
    owners = [(name, mod) for mod, names in PUBLIC.items() for name in names]
    owners += [(mod, None) for mod in SUBMODULES]
    assert len(owners) == 36
    for name, mod in owners:
        want = importlib.import_module(f"projquant.{name if mod is None else mod}")
        if mod is not None:
            want = getattr(want, name)
        assert getattr(projquant, name) is want, name
        assert name in dir(projquant), name
        assert star[name] is want, name
    with pytest.raises(AttributeError):
        projquant.no_such_name
    assert projquant.btquant.__all__ == BTQUANT_ALL
    exec("from projquant.btquant import *", star)  # every lazy name resolves


def test_one_process_runs_commands_like_separate_processes(capsys):
    # the parser is built once per process; subcommands run in turn through
    # it, with a usage error in between, print what fresh processes print
    commands = [
        ["classify-cubic", "--g2", "3", "--g3", "1"],
        ["hilbert", "--nvars", "3", "--degrees", "3", "--m", "0..6"],
        ["weierstrass-embed", "--tau", "0.3+1.9j", "--samples", "12"],
        ["bt-converge", "--check", "norm", "--f", "x3", "--m-min", "4", "--m-max", "16"],
        ["moment-map", "--weights=-1,1", "--samples", "20"],
    ]
    assert cli.build_parser() is cli.build_parser()
    procs = [subprocess.Popen([sys.executable, "-m", "projquant.cli", *cmd],
                              stdout=subprocess.PIPE, text=True, env=_child_env())
             for cmd in commands]
    separate = [(proc.communicate(timeout=120)[0], proc.returncode) for proc in procs]
    in_process = []
    for cmd in commands:
        code, out = run_cli(capsys, *cmd)
        in_process.append((out, code))
        with pytest.raises(SystemExit):
            main(["hilbert", "--bogus-flag"])
        capsys.readouterr()
    assert in_process == separate


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3  # comment\n")
    parsed = load_config(str(cfg))
    assert parsed == RunConfig(seed=3)
    code, out = run_cli(capsys, "--config", str(cfg), "hilbert",
                        "--nvars", "2", "--m", "0..2")
    assert code == 0
    assert comments(out)[0] == "# seed = 3"


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


@pytest.mark.parametrize("key", ["power_tol", "rank_rtol", "membership_tol",
                                 "lattice_cutoff", "quad_radial", "quad_angular",
                                 "zero_level_tol"])
def test_dead_tolerances_are_not_config_keys(tmp_path, capsys, key):
    # nothing reads these tolerances (nor the torus series cutoff, which is
    # derived per lattice, nor the BT rule sizes, which are derived from the
    # level cap, nor a zero-level tolerance, since the orbit verdicts are
    # read off the moment map's limits), so the config neither accepts nor
    # echoes them
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 1e-9\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "hilbert", "--nvars", "2", "--m", "0..2"])
    assert exc.value.code == 2
    assert key in capsys.readouterr().err
    code, out = run_cli(capsys, "hilbert", "--nvars", "2", "--m", "0..2")
    assert code == 0 and not any(key in line for line in comments(out))
    code, out = run_cli(capsys, "classify-cubic", "--g2", "0", "--g3", "0")
    assert code == 0 and key not in json.loads(out)["config"]


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        code, out = run_cli(capsys, "bt-converge", "--check", "norm",
                            "--f", "x3", "--m-min", "4", "--m-max", "64")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code, out = run_cli(capsys, "moment-map", "--weights=-1,1",
                            "--samples", "40")
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_output_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROJQUANT_OUTDIR", str(tmp_path))
    code, _ = run_cli(capsys, "hilbert", "--nvars", "2", "--m", "0..2",
                      "--out", "dims.csv")
    assert code == 0
    assert (tmp_path / "dims.csv").exists()


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(seed=-1)
    assert RunConfig(seed=0).to_dict() == {"seed": 0}


# a config value read as an int, and a flag value read by its argparse type
# or checked by its command: each bad one is a usage error naming the key
# (with the file and line) or the flag, and the offending text
BAD_CONFIG_LINES = ["seed = true", "seed = 1.5", 'seed = "7"', "seed = -3"]
BAD_FLAGS = [
    (["moment-map", "--weights=a,1"], "--weights", "'a,1'"),
    (["moment-map", "--weights="], "--weights", "''"),
    (["hilbert", "--nvars", "3", "--degrees", "a"], "--degrees", "'a'"),
    (["hilbert", "--nvars", "3", "--degrees", "3,"], "--degrees", "'3,'"),
    (["hilbert", "--nvars", "3", "--m", "x"], "--m", "'x'"),
    (["hilbert", "--nvars", "3", "--m", "0..y"], "--m", "'0..y'"),
    (["tuynman-check", "--m", "0"], "--m", "'0'"),
    (["tuynman-check", "--m=-2"], "--m", "'-2'"),
    (["tuynman-check", "--m", "2,0"], "--m", "'2,0'"),
    (["tuynman-check", "--m", "x"], "--m", "'x'"),
    (["tuynman-check", "--m", "2,"], "--m", "'2,'"),
    (["weierstrass-embed", "--tau", "2j", "--samples", "x"], "--samples", "'x'"),
    (["weierstrass-embed", "--tau", "0j"], "--tau", "'0j'"),
    (["weierstrass-embed", "--tau", "x"], "--tau", "'x'"),
    # the zero polynomial vanishes at every grid node
    (["curve-points", "--poly", "0*X0"], "--poly", "'0*X0'"),
    (["curve-points", "--poly", "X0-X0"], "--poly", "'X0-X0'"),
    (["curve-points", "--poly", "0"], "--poly", "'0'"),
    (["classify-cubic", "--g2", "x", "--g3", "0"], "--g2", "'x'"),
    (["bt-converge", "--check", "norm", "--f", "x3", "--m-min", "0"], "--m-min", "'0'"),
    (["bt-converge", "--check", "norm", "--f", "x3", "--m-max=-4"], "--m-max", "'-4'"),
    (["bt-converge", "--check", "norm", "--f", "x3", "--m-min", "8", "--m-max", "4"],
     "--m-min 8", "--m-max 4"),
    (["bt-converge", "--check", "norm", "--f", "nope"], "--f", "'nope'"),
    (["bt-converge", "--check", "dirac", "--f", "x1", "--g", "nope"], "--g", "'nope'"),
]


@pytest.mark.parametrize("line, argv, name, text", [
    *[(line, ["moment-map", "--weights=-1,1", "--samples", "5"], *line.split(" = "))
      for line in BAD_CONFIG_LINES],
    *[(None, argv, name, text) for argv, name, text in BAD_FLAGS],
], ids=[*BAD_CONFIG_LINES, *(" ".join(argv) for argv, _, _ in BAD_FLAGS)])
def test_bad_value_is_a_usage_error(tmp_path, capsys, line, argv, name, text):
    if line is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# run\n{line}\n")
        argv = ["--config", str(cfg), *argv]
    try:  # argparse exits on a flag its type rejects; main returns on a UsageError
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = captured.err.splitlines()[-1]
    assert name in err and text in err
    if line is not None:
        assert f"{cfg}:2: " in err
    assert "Traceback" not in captured.err and "invalid" not in err and " _" not in err
