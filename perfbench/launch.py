"""Run one projquant command line with span tracing installed.

    python3 perfbench/launch.py <trace.json> <projquant arguments...>

Behaves like ``python -m projquant.cli <arguments>`` (same stdout, same exit
code) and writes the process's span statistics to <trace.json>.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import projquant.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = projquant.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
