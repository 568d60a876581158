"""One pass of a workload's op list, in a fresh process.

    python3 perfbench/passrun.py <workload> <seed> <pass index> <traced 0|1> <tmpdir>

Builds the pass's ops from the seed and the pass index, runs them in order
as one closed-loop client, checks each output with its oracle and prints
one JSON line: per op [name, latency s, failure reason or null, excused];
the peak RSS of the command processes it started; and, when traced, the
exported spans (those of traced command processes merged in).  A fresh process per pass
means no pass can reuse what an earlier one computed, just as no
command-line user can.  Expects ``src/`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import sys
import time

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_ops(ops, tracer=None) -> list:
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op_index += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
            latency = time.perf_counter() - t0
            results.append([op.name, latency, f"{op.name}: {type(exc).__name__}: {exc}",
                            op.known])
            continue
        latency = time.perf_counter() - t0
        try:
            reason, honest = op.check(out)
        except Exception as exc:  # unparseable output is a failed op
            reason, honest = f"output not checkable: {type(exc).__name__}: {exc}", False
        results.append([op.name, latency, f"{op.name}: {reason}" if reason else None,
                        bool(reason) and (op.known or honest)])
    return results


def main() -> int:
    workload, seed, index, traced, tmpdir = sys.argv[1:6]
    ctx = workloads.Context(ROOT, tmpdir, dict(os.environ))
    ctx.traced = traced == "1"
    ops = workloads.WORKLOADS[workload][0](int(seed), int(index), ctx)
    tracer = spans.Tracer() if ctx.traced else None
    if tracer is not None:
        tracer.install()
    results = run_ops(ops, tracer)
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.export()
        for part in ctx.child_traces:
            spans.merge(trace, part)
    print(json.dumps({"ops": results, "command_rss_mb": ctx.child_rss_mb, "trace": trace}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
