"""Run one coopjam command with the span tracer installed and dump its spans.

    python3 bench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

The traced `cli` workload starts this instead of `python -m coopjam.cli`,
so the per-layer numbers cover the work a real CLI process does.  coopjam
must be importable (run.py puts `src` on PYTHONPATH).
"""

from __future__ import annotations

import sys
from pathlib import Path

import coopjam.cli
from tracer import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        code = coopjam.cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
