"""projquant benchmark: time to a verified result.

    python3 perfbench/run.py --workload {cli_readme,bt_deep,geometry_batch}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  The workload's op list is repeated in
round(passes * S / 20) whole passes (workloads.WORKLOADS), each in
a fresh process (passrun.py) with inputs drawn from the seed and the pass
index, so that no pass reuses what an earlier one computed.  Every
op is checked by an independent-route oracle (oracles.py); an op that fails
its oracle, exits with another code than the documented one or raises
counts as failed, and ``python3 -m pytest perfbench/selftest.py`` checks
the oracles themselves.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
Times are at reference speed (calib.py): each pass, and the set-up runs,
are bracketed by runs of a fixed kernel that never touches the program,
and raw seconds are scaled by calib.REFERENCE_S over the median kernel
time around them, which takes out the machine's minute-long speed swings.

  setup_s       median wall time of a fresh interpreter running ``--help``
  wall_s        time for the whole op list: the median over passes of the
                pass's summed op latencies
  op_p50_ms     median over the op list of each op's median latency across
                passes.  The op lists mix kinds of very different cost, so
                the median of all samples falls between two kinds' latency
                clusters and swings with their edges; the median of op
                medians falls between two ops' medians, which repeat
  op_tail_ms    latency at the highest percentile with >= 10 samples beyond,
                over every op sample of every pass
  peak_rss_mb   peak RSS of the process doing the work (cli_readme: the
                maximum over the command processes)
  ok_frac       ops that passed their oracle / ops attempted
  bt_max_level  highest m on the ladder 64, 96, ..., 1024 at which ||T_x3||
                and the cyclic Dirac residuals match their closed forms,
                each rung in a child process under an address-space and a
                wall cap; the ladder stops at the first failing rung.  It
                is probed in every untraced run, whatever the workload.

With ``--trace 1`` passes alternate between untraced and traced with spans
installed (spans.py); the last line reports per-layer metrics per traced
pass, and ``trace.overhead_frac`` compares the median op-list time of the
two halves.  The ladder is not probed in a traced run.
A run record (versions, core and BLAS thread counts, src/ line count,
ladder outcomes, failures, per-op latencies, absent trace targets) goes to
stderr.
"""

from __future__ import annotations

import os
import sys

# single-threaded BLAS in this process and every child: steadier timings on
# a shared machine, and the setting is recorded with the results
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import calib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10

LADDER = (64, 96, 128, 192, 256, 384, 512, 768, 1024)
PROBE_AS_BYTES = 2 << 30
PROBE_RUNG_CAP_S = 20.0
PROBE_BUDGET_S = 30.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB", "ok_frac": "ratio", "bt_max_level": "level"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(ctx, reps: int) -> float:
    """Median wall time of ``projquant --help`` in a fresh interpreter."""
    from workloads import run_child

    argv = [sys.executable, "-m", "projquant.cli", "--help"]
    times = []
    for _ in range(reps):
        res = run_child(ctx, argv)
        if res.rc != 0:
            raise RuntimeError(f"projquant --help exited {res.rc}: {res.err.strip()[-300:]}")
        times.append(res.seconds)
    return statistics.median(times)


IMPORT_SNIPPET = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import projquant.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)")


def import_times(ctx, reps: int) -> tuple[float, float]:
    from workloads import run_child

    pairs = []
    for _ in range(reps):
        res = run_child(ctx, [sys.executable, "-c", IMPORT_SNIPPET])
        if res.rc != 0:
            raise RuntimeError(f"import timing failed: {res.err.strip()[-300:]}")
        pairs.append(tuple(float(v) for v in res.out.split()))
    return (statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs))


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_AS_BYTES, PROBE_AS_BYTES))


def probe_ladder(ctx) -> tuple[int, list]:
    """bt_max_level and each rung's outcome; kept out of every timing."""
    from workloads import run_child

    best, outcomes = 0, []
    t0 = time.perf_counter()
    for m in LADDER:
        cap = min(PROBE_RUNG_CAP_S, PROBE_BUDGET_S - (time.perf_counter() - t0))
        if cap <= 0:
            outcomes.append({"m": m, "outcome": "timeout", "seconds": 0.0})
            break
        res = run_child(ctx, [sys.executable, os.path.join(HERE, "probe.py"), str(m)],
                        timeout=cap, preexec=_limit_address_space)
        if res.rc < 0:
            outcome = "timeout" if res.seconds >= cap else f"signal {-res.rc}"
            detail = []
        else:
            try:
                last = json.loads(res.out.strip().splitlines()[-1])
                outcome, detail = last["outcome"], last["detail"]
            except (IndexError, ValueError, KeyError):
                outcome, detail = f"exit {res.rc}", [res.err.strip()[-200:]]
        outcomes.append({"m": m, "outcome": outcome, "seconds": round(res.seconds, 3),
                         "maxrss_mb": round(res.maxrss_mb, 1), "detail": detail})
        if outcome != "ok":
            break
        best = m
    return best, outcomes


def run_passes(ctx, workload: str, seed: int, n_passes: int, trace: bool):
    """Run whole passes over the op list, each in a fresh process.

    With tracing, odd passes run traced and even passes untraced, so the two
    halves see the same machine state and can be compared.  Returns per pass
    a list of (latency_s at reference speed, reason or None, excused) and the
    raw pass wall time with its median reference kernel time; then the op
    names of the first pass, the exported traces and the peak RSS of the
    process doing the work.
    """
    from workloads import run_child

    passes, raw, traces, rss, names = [], [], [], 0.0, []
    for k in range(n_passes):
        traced = trace and k % 2 == 1
        pass_dir = os.path.join(ctx.tmpdir, f"pass{k}")
        os.makedirs(pass_dir)
        argv = [sys.executable, os.path.join(HERE, "passrun.py"), workload,
                str(seed), str(k), str(int(traced)), pass_dir]
        res, ref_s = calib.bracketed(lambda: run_child(ctx, argv))
        if res.rc != 0:
            raise RuntimeError(f"pass {k} exited {res.rc}: {res.err.strip()[-500:]}")
        out = json.loads(res.out.strip().splitlines()[-1])
        names = names or [r[0] for r in out["ops"]]
        scale = calib.REFERENCE_S / ref_s
        passes.append([(r[1] * scale, r[2], r[3]) for r in out["ops"]])
        raw.append({"wall_s": round(sum(r[1] for r in out["ops"]), 4),
                    "reference_ms": round(1000 * ref_s, 4)})
        rss = max(rss, out["command_rss_mb"] if workload == "cli_readme" else res.maxrss_mb)
        if out["trace"] is not None:
            traces.append(out["trace"])
    return passes, raw, names, traces, rss


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    i = max(0, n - TAIL_BEYOND - 1)
    return lat[i], 100.0 * (i + 1) / n, n - i - 1


def src_line_count() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_record(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without the dict form
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "src_lines": src_line_count(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tmpdir: str):
    import spans
    import workloads

    ctx = workloads.Context(ROOT, tmpdir, child_env())
    record = run_record(seed)
    setup_raw_s, ref_s = calib.bracketed(lambda: setup_seconds(ctx, SETUP_REPS))
    setup_s = setup_raw_s * calib.REFERENCE_S / ref_s
    record["setup_raw"] = {"seconds": setup_raw_s, "reference_ms": 1000 * ref_s}
    if not trace:
        bt_max_level, record["bt_ladder"] = probe_ladder(ctx)

    n_passes = max(MIN_PASSES, round(workloads.WORKLOADS[workload][1] * seconds / 20))
    if trace:  # as many traced passes as untraced ones, at least two each
        n_passes = max(4, n_passes + n_passes % 2)
    passes, raw, names, traces, rss = run_passes(ctx, workload, seed, n_passes, trace)

    flat = [r for p in passes for r in p]
    attempted = len(flat)
    failures = [r for r in flat if r[1]]
    correct = all(r[2] for r in failures)
    record["passes_raw"] = raw
    op_median = [statistics.median(p[i][0] for p in passes) for i in range(len(names))]
    # per position in the op list; the inputs, and so the names, change by pass
    record["op_median_ms"] = [[name, round(1000 * v, 3)] for name, v in zip(names, op_median)]
    record["failures"] = sorted({r[1] for r in failures})
    record["unexcused_failures"] = sorted({r[1] for r in failures if not r[2]})

    def op_list_s(ps):
        return statistics.median(sum(r[0] for r in p) for p in ps)

    if not trace:
        lat = [r[0] for r in flat]
        tail_s, pct, beyond = tail(lat)
        record["op_tail"] = {"percentile": round(pct, 2), "samples_beyond": beyond,
                             "samples": len(lat)}
        values = {"setup_s": setup_s, "wall_s": op_list_s(passes),
                  "op_p50_ms": 1000 * statistics.median(op_median),
                  "op_tail_ms": 1000 * tail_s,
                  "peak_rss_mb": rss, "ok_frac": (attempted - len(failures)) / attempted,
                  "bt_max_level": bt_max_level}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        trace_data = {}
        for part in traces:
            spans.merge(trace_data, part)
        untraced, traced = op_list_s(passes[0::2]), op_list_s(passes[1::2])
        overhead = (traced - untraced) / untraced
        record["tracing_overhead_frac"] = overhead
        record["absent"] = trace_data.get("absent", [])
        record["trace_hook_errors"] = trace_data.get("hook_errors", [])
        layer = spans.layer_metrics(trace_data, len(traces))
        numpy_s, projquant_s = import_times(ctx, SETUP_REPS)
        layer["setup.import_numpy_s"] = (numpy_s, "s")
        layer["setup.import_projquant_s"] = (projquant_s, "s")
        layer["trace.overhead_frac"] = (overhead, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    result ={"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, record


def run_all(args) -> int:
    """Every workload in its own process, one table of all metrics."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "projquant", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/projquant", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)} or all")

    tmpdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        result, record = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass
    print(json.dumps({"workload": args.workload, **record}), file=sys.stderr)
    for metric, m in result["metrics"].items():
        print(f"{metric:<48} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
