"""Span tracing of the program's public functions, installed from outside.

The benchmark does not edit the program to trace it.  :func:`install`
wraps each function named in :data:`TARGETS` and rebinds the wrapper in
every ``projquant`` namespace that holds the original object (modules
re-import names such as ``toeplitz`` and ``op_norm``), so calls through
any import path are seen.  A name that does not exist at the commit under
test is listed as absent instead of raising, which lets the benchmark run
across refactors that delete or move functions.

A span's self time is its duration minus the time covered by its child
spans; counters record work done (calls, computed bytes and flops) and
health figures at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: (metric prefix, module, attribute path).  The prefix names the layer.
TARGETS = [
    ("cli.main", "projquant.cli", "main"),
    ("poly.Polynomial.evaluate", "projquant.poly", "Polynomial.evaluate"),
    ("gaussrat.exact_rank", "projquant.gaussrat", "exact_rank"),
    ("projgeo.rank_at", "projquant.projgeo", "rank_at"),
    ("projgeo.is_on_variety", "projquant.projgeo", "is_on_variety"),
    ("coordring.hilbert_function", "projquant.coordring", "hilbert_function"),
    ("coordring.graded_basis_hypersurface", "projquant.coordring",
     "graded_basis_hypersurface"),
    ("weierstrass.eisenstein", "projquant.weierstrass", "eisenstein"),
    ("weierstrass.wp", "projquant.weierstrass", "wp"),
    ("weierstrass.wp_prime", "projquant.weierstrass", "wp_prime"),
    ("weierstrass.ode_residual", "projquant.weierstrass", "ode_residual"),
    ("btquant.build_quadrature", "projquant.btquant.quadrature", "build_quadrature"),
    ("btquant.SectionBasis.build", "projquant.btquant.sections", "SectionBasis.build"),
    ("btquant.toeplitz", "projquant.btquant.operators", "toeplitz"),
    ("btquant.geom_quant", "projquant.btquant.operators", "geom_quant"),
    ("btquant.op_norm", "projquant.btquant.operators", "op_norm"),
    ("gitquot.moment_map", "projquant.gitquot", "moment_map"),
    ("gitquot.orbit_meets_zero_level", "projquant.gitquot", "orbit_meets_zero_level"),
    ("gitquot.semistable", "projquant.gitquot", "semistable"),
    ("gitquot.count_k_orbit_classes", "projquant.gitquot", "count_k_orbit_classes"),
]


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span statistics and counters of one process."""

    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)      # counter -> set of keys
    absent: list = field(default_factory=list)
    hook_errors: list = field(default_factory=list)
    op_index: int = 0
    last_build_nodes: int = 0
    _stack: list = field(default_factory=list)    # child time per open span
    _restore: list = field(default_factory=list)
    _originals: dict = field(default_factory=dict)
    _identity_cache: dict = field(default_factory=dict)

    # -- counters -----------------------------------------------------------
    def add(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, 0.0), float(value))

    def distinct(self, name: str, key):
        """Record a key seen by the current operation."""
        self.keys.setdefault(name, set()).add((self.op_index, key))

    # -- spans ----------------------------------------------------------------
    def wrap(self, name: str, fn, hook=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - child
                if stack:
                    stack[-1] += dur
            if hook is not None:
                # counters and health checks run outside the span and are
                # charged to no one; a hook that breaks must not fail the op
                t1 = time.perf_counter()
                try:
                    hook(self, args, kwargs, result)
                except Exception as exc:
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
                if stack:
                    stack[-1] += time.perf_counter() - t1
            return result

        return traced

    def install(self):
        """Wrap every target that exists; record the others as absent."""
        for name, modname, path in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(mod, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            hook = HOOKS.get(name)
            if owner is not mod:  # method on a class
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            self._originals[name] = raw
            wrapper = self.wrap(name, raw, hook)
            for ns in _namespaces():
                for key, val in list(vars(ns).items()):
                    if val is raw:
                        self._restore.append((ns, key, raw))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def original(self, name: str):
        return self._originals.get(name)

    # -- export ---------------------------------------------------------------
    def export(self) -> dict:
        return {
            "stats": {k: vars(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "absent": list(self.absent),
            "hook_errors": self.hook_errors[:20],
        }


def _namespaces():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "projquant" or n.startswith("projquant."))]


# ---------------------------------------------------------------------------
# hooks: counters measured where the work happens
# ---------------------------------------------------------------------------

def _arrays_nbytes(obj) -> int:
    try:
        items = vars(obj).values()
    except TypeError:
        return 0
    return sum(v.nbytes for v in items if isinstance(v, np.ndarray))


def _basis_hook(tr: Tracer, args, kwargs, basis):
    m = getattr(basis, "m", args[1] if len(args) > 1 else kwargs.get("m"))
    quad = getattr(basis, "quad", None)
    nodes = getattr(quad, "nodes", None)
    nnodes = int(np.size(nodes)) if nodes is not None else 0
    key = (m, getattr(quad, "radial_count", None), getattr(quad, "angular_count", None))
    tr.add("btquant.SectionBasis.build.bytes_computed", _arrays_nbytes(basis))
    tr.distinct("btquant.SectionBasis.build.levels", key)
    tr.last_build_nodes = nnodes
    # max |T_one - I| once per (m, rule), with the untraced toeplitz
    if key not in tr._identity_cache:
        toeplitz = tr.original("btquant.toeplitz")
        one = _one_function()
        defect = None
        if toeplitz is not None and one is not None:
            mat = _matrix(toeplitz(one, m, basis=basis))
            defect = float(np.max(np.abs(mat - np.eye(mat.shape[0]))))
        tr._identity_cache[key] = defect
    if tr._identity_cache[key] is not None:
        tr.maximum("btquant.toeplitz.identity_defect_max", tr._identity_cache[key])


def _one_function():
    try:
        from projquant.btquant import standard_family
        return standard_family().get("one")
    except ImportError:
        return None


def _matrix(op) -> np.ndarray:
    return np.asarray(getattr(op, "mat", op))


_PROBE_Z = np.array([0.3 + 0.2j, -1.4 + 0.7j, 2.5 - 0.1j])


def _toeplitz_hook(tr: Tracer, args, kwargs, result):
    mat = _matrix(result)
    n = mat.shape[0]
    f = args[0] if args else kwargs.get("f")
    basis = kwargs.get("basis", args[3] if len(args) > 3 else None)
    quad = kwargs.get("quad", args[2] if len(args) > 2 else None)
    if basis is not None:
        quad = getattr(basis, "quad", None)
    nodes = getattr(quad, "nodes", None)
    nnodes = int(np.size(nodes)) if nodes is not None else tr.last_build_nodes
    # dense assembly: f-scaling, the n x N x n pairing product and two n^3
    # basis changes, all complex (8 real flops per multiply-add)
    tr.add("btquant.toeplitz.flops_computed",
           6 * n * nnodes + 8 * n * n * nnodes + 16 * n ** 3)
    try:
        real_f = bool(np.all(np.abs(np.imag(f(_PROBE_Z))) <= 1e-14))
    except Exception:  # f not evaluable on a plain array: skip the health figure
        real_f = False
    if real_f:
        tr.maximum("btquant.toeplitz.hermiticity_defect_max",
                   float(np.max(np.abs(mat - mat.conj().T))))


def _eisenstein_hook(tr: Tracer, args, kwargs, result):
    lat = args[0] if args else kwargs.get("L")
    n = args[1] if len(args) > 1 else kwargs.get("N")
    tr.distinct("weierstrass.eisenstein.lattices", (getattr(lat, "tau", lat), n))


def _orbit_hook(tr: Tracer, args, kwargs, result):
    met = result[0] if isinstance(result, tuple) else result
    tr.add("gitquot.orbit_meets_zero_level.met", 1.0 if met else 0.0)


HOOKS = {
    "btquant.SectionBasis.build": _basis_hook,
    "btquant.toeplitz": _toeplitz_hook,
    "weierstrass.eisenstein": _eisenstein_hook,
    "gitquot.orbit_meets_zero_level": _orbit_hook,
}


def merge(into: dict, part: dict):
    """Add one exported trace (e.g. from a child process) into another."""
    for name, st in part.get("stats", {}).items():
        acc = into.setdefault("stats", {}).setdefault(name, vars(Stat()))
        for k, v in st.items():
            acc[k] = acc.get(k, 0) + v
    for name, v in part.get("counters", {}).items():
        c = into.setdefault("counters", {})
        c[name] = max(c.get(name, 0.0), v) if name.endswith("_max") else c.get(name, 0.0) + v
    for name, v in part.get("distinct", {}).items():
        d = into.setdefault("distinct", {})
        d[name] = d.get(name, 0) + v
    for key in ("absent", "hook_errors"):
        seen = into.setdefault(key, [])
        seen.extend(a for a in part.get(key, []) if a not in seen)


def layer_metrics(trace: dict, passes: int) -> dict:
    """Per-layer metrics, per traced pass of the workload's op list.

    Returns {metric name: (value, unit)}.
    """
    stats, counters, distinct = (trace.get(k, {}) for k in ("stats", "counters", "distinct"))
    per = max(passes, 1)
    out = {}

    def st(name):
        return stats.get(name, vars(Stat()))

    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = (st(name)["calls"] / per, "count/pass")
        out[f"{name}.self_s"] = (st(name)["self_s"] / per, "s/pass")
    builds = st("btquant.SectionBasis.build")["calls"]
    levels = distinct.get("btquant.SectionBasis.build.levels", 0)
    out["btquant.SectionBasis.build.builds_per_level"] = (
        builds / levels if levels else 0.0, "ratio")
    out["btquant.SectionBasis.build.bytes_computed"] = (
        counters.get("btquant.SectionBasis.build.bytes_computed", 0.0) / per, "B/pass")
    flops = counters.get("btquant.toeplitz.flops_computed", 0.0)
    tself = st("btquant.toeplitz")["self_s"]
    out["btquant.toeplitz.flops_computed"] = (flops / per, "flop/pass")
    out["btquant.toeplitz.gflops"] = (flops / tself / 1e9 if tself else 0.0, "GFLOP/s")
    for h in ("identity_defect_max", "hermiticity_defect_max"):
        out[f"btquant.toeplitz.{h}"] = (counters.get(f"btquant.toeplitz.{h}", 0.0), "abs")
    calls = st("weierstrass.eisenstein")["calls"]
    lattices = distinct.get("weierstrass.eisenstein.lattices", 0)
    out["weierstrass.eisenstein.calls_per_lattice"] = (
        calls / lattices if lattices else 0.0, "ratio")
    ocalls = st("gitquot.orbit_meets_zero_level")["calls"]
    out["gitquot.orbit_meets_zero_level.met_ratio"] = (
        counters.get("gitquot.orbit_meets_zero_level.met", 0.0) / ocalls if ocalls else 0.0,
        "ratio")
    return out
