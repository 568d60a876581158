"""One rung of the bt_max_level ladder, run in its own capped process.

    python3 perfbench/probe.py <m>

Computes ||T_x3|| and the Dirac residual of the three cyclic coordinate
pairs at level m through the library, checks them against their closed
forms and prints one JSON line {"outcome": ..., "detail": ...}.  The
outcome is "ok", "wrong", or the name of the exception that stopped the
computation (MemoryError under the parent's address-space cap,
LinAlgError when the assembly breaks down).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

CYCLIC_PAIRS = (("x1", "x2"), ("x2", "x3"), ("x3", "x1"))


def rung(m: int) -> dict:
    from projquant import btquant as bt

    fam = bt.standard_family()
    quad = bt.build_quadrature(m)
    norm = bt.norm_asymptotics(fam["x3"], [m], quad=quad)["rows"][0][1]
    problems = [oracles.check_norm(m, norm)]
    for f, g in CYCLIC_PAIRS:
        problems.append(oracles.check_dirac(m, bt.dirac_residual(fam[f], fam[g], m, quad=quad)))
    problems = [p for p in problems if p]
    return {"outcome": "wrong" if problems else "ok", "detail": problems}


def main() -> int:
    m = int(sys.argv[1])
    try:
        out = rung(m)
    except Exception as exc:  # the outcome names the failure; the parent decides
        out = {"outcome": type(exc).__name__, "detail": [str(exc)[:200]]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
