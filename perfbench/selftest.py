"""Self-test of the benchmark's oracles and tracing.

    python3 -m pytest perfbench/selftest.py

Each checker must accept what the program produces and reject the same
output perturbed just past its tolerance.  The file name keeps it out of
the repository's default test collection.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from projquant import btquant as bt  # noqa: E402
from projquant import coordring, gitquot, projgeo  # noqa: E402

M = 16


@pytest.fixture(scope="module")
def fam():
    return bt.standard_family()


@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
def test_norm_oracle(fam):
    value = bt.norm_asymptotics(fam["x3"], [M])["rows"][0][1]
    assert oracles.check_norm(M, value) is None
    assert oracles.check_norm(M, value * (1 + 1e-6)) is not None


def test_spectrum_oracle(fam):
    mat = bt.toeplitz(fam["x1"], M).mat
    assert oracles.check_spectrum(M, mat) is None
    assert oracles.check_spectrum(M, mat * (1 + 1e-6)) is not None
    skew = mat.copy()
    skew[0, 1] += 1e-6
    assert oracles.check_spectrum(M, skew) is not None


def test_dirac_and_product_oracles_in_a_turned_frame(fam):
    y = workloads.frame_functions(bt, oracles.z_rotation(0.7))
    for f, g in ((y[0], y[1]), (y[1], y[2]), (y[2], y[0])):
        dirac = bt.dirac_residual(f, g, M)
        assert oracles.check_dirac(M, dirac) is None
        assert oracles.check_dirac(M, dirac * (1 + 1e-6)) is not None
        prod = bt.product_residual(f, g, M)
        assert oracles.check_product(M, prod) is None
        assert oracles.check_product(M, prod + 1e-6) is not None


def test_tuynman_oracle(fam):
    value = bt.tuynman_residual(fam["x1"], 8)
    assert oracles.check_tuynman(8, value) is None
    assert oracles.check_tuynman(8, 2e-6) is not None
    assert oracles.check_tuynman(8, float("nan")) is not None


def test_curve_oracle():
    rc, out = workloads.call_cli(["curve-points", "--g2=4", "--g3=0", "--resolution", "41"])
    _, header, rows = oracles.parse_csv(out)
    pts = [(float(x), float(y)) for x, y in rows]
    want = oracles.curve_crossings(4, 0, np.linspace(-2, 2, 41), np.linspace(-3, 3, 41))
    assert rc == 0 and header == ["x", "y"]
    assert oracles.check_curve_points(4, 0, pts, want) is None
    moved = list(pts)
    moved[3] = (moved[3][0], moved[3][1] + 1e-3)
    assert oracles.check_curve_points(4, 0, moved, want) is not None
    assert oracles.check_curve_points(4, 0, pts[: len(pts) // 2], want) is not None


def test_torus_oracle():
    rc, out = workloads.call_cli(["weierstrass-embed", "--tau", "2j", "--samples", "5"])
    _, _, rows = oracles.parse_csv(out)
    assert oracles.check_torus(2j, rows, rc) == (None, False)
    bad = [list(r) for r in rows]
    bad[0][2] = repr(complex(bad[0][2]) * 1.01)
    assert oracles.check_torus(2j, bad, rc)[0] is not None
    loud = [list(r) for r in rows]
    loud[1][5] = "2e-6"
    why, honest = oracles.check_torus(2j, loud, 1)
    assert why and honest
    assert oracles.check_torus(2j, loud, 0)[1] is False


def test_moment_oracle():
    rc, out = workloads.call_cli(["moment-map", "--weights=-1,2", "--samples", "10"])
    payload = json.loads(out)
    assert oracles.check_moment_report((-1, 2), payload, rc) is None
    payload["report"]["samples"][0]["mu"][0] += 1e-9
    assert oracles.check_moment_report((-1, 2), payload, rc) is not None
    payload = json.loads(out)
    s = payload["report"]["samples"][1]
    s["orbit_meets_zero_level"] = not s["orbit_meets_zero_level"]
    assert oracles.check_moment_report((-1, 2), payload, rc) is not None


def test_zero_level_oracle():
    weights = (-1, 1, 1)
    action = gitquot.LinearAction.from_weights(weights)
    x = np.array([0.3 + 0.1j, -1.2 + 0.4j, 0.5j])
    met, witness = gitquot.orbit_meets_zero_level(action, x, tol=1e-9)
    wit = np.asarray(witness.coords, dtype=complex)
    assert oracles.check_zero_level(weights, x, met, wit, 1e-9) is None
    assert oracles.check_zero_level(weights, x, not met, wit, 1e-9) is not None
    assert oracles.check_zero_level(weights, x, met, wit * [1.1, 1, 1], 1e-9) is not None
    lone = np.array([0.0, 1.0, 2.0j])
    assert oracles.check_zero_level(weights, lone, False, None, 1e-9) is None


def test_hilbert_oracles():
    f = projgeo.weierstrass_cubic(Fraction(1), Fraction(2))
    ring = coordring.GradedRingPresentation.hypersurface(f)
    hf, basis = coordring.hilbert_function(ring, 7), coordring.graded_basis_hypersurface(f, 7)
    assert oracles.check_hilbert(3, 3, 7, hf, basis) is None
    assert oracles.check_hilbert(3, 3, 7, hf + 1, basis) is not None
    assert oracles.check_hilbert(3, 3, 7, hf, basis[:-1] + basis[:1]) is not None
    rc, out = workloads.call_cli(["hilbert", "--nvars", "3", "--degrees", "3", "--m", "0..6"])
    trailer, _, rows = oracles.parse_csv(out)
    table = [(int(m), int(d)) for m, d in rows]
    assert oracles.check_hilbert_table(3, (3,), table, int(trailer["variety_dim"])) is None
    table[4] = (table[4][0], table[4][1] + 1)
    assert oracles.check_hilbert_table(3, (3,), table) is not None


def test_singular_oracles():
    c = Fraction(2, 3)
    g2, g3 = 12 * c * c, -8 * c ** 3
    V = projgeo.VarietyPresentation([projgeo.weierstrass_cubic(g2, g3)], claimed_dim=1)
    node = (c, Fraction(0), Fraction(1))
    sing = projgeo.is_singular_point(V, projgeo.ProjPoint(node))
    assert oracles.check_singular(g2, g3, node, sing) is None
    assert oracles.check_singular(g2, g3, node, not sing) is not None
    verdict = projgeo.cubic_classify(g2, g3).value
    assert oracles.check_classify(g2, g3, verdict) is None
    assert oracles.check_classify(g2, g3, "smooth") is not None
    assert oracles.check_classify(g2 + 1, g3, verdict) is not None


def test_tracer_rebinds_every_namespace_and_restores(fam):
    import projquant.btquant.asymptotics as asym
    import projquant.btquant.operators as ops_mod

    original = ops_mod.toeplitz
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert asym.toeplitz is ops_mod.toeplitz is bt.toeplitz
        assert asym.toeplitz is not original
        bt.dirac_residual(fam["x1"], fam["x2"], 8)
    finally:
        tracer.uninstall()
    assert asym.toeplitz is original and bt.toeplitz is original
    st = tracer.stats["btquant.toeplitz"]
    assert st.calls == 3 and 0 < st.self_s <= st.total_s
    assert tracer.stats["btquant.SectionBasis.build"].calls == 1
    assert tracer.counters["btquant.toeplitz.identity_defect_max"] < 1e-12
    assert tracer.counters["btquant.toeplitz.hermiticity_defect_max"] < 1e-12
    metrics = spans.layer_metrics(tracer.export(), 1)
    assert metrics["btquant.SectionBasis.build.builds_per_level"][0] == 1.0


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("btquant.gone", "projquant.btquant.operators", "no_such_function"),
        ("nomodule.fn", "projquant.no_such_module", "fn")])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["btquant.gone", "nomodule.fn"]


def test_pass_inputs_follow_seed_and_pass_index(tmp_path):
    ctx = workloads.Context(str(tmp_path), str(tmp_path), {})

    def names(seed, index):
        return [op.name for op in workloads.geometry_batch(seed, index, ctx)]

    assert names(3, 1) == names(3, 1)
    assert names(3, 0) != names(3, 1)
    assert len(names(3, 0)) == len(names(4, 0))
