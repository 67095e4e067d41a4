"""``repro serve`` with the benchmark's layer spans installed.

Usage: ``python pipebench/traced_daemon.py TRACE_OUT serve ARGS...``.  The
daemon runs exactly as ``python -m repro.cli serve ARGS...`` does; when it
shuts down, its spans and counters are written to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cli

    from pipebench.tracing import Tracer, install

    trace_out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = install(Tracer())
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
