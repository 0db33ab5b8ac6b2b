"""Run one gpiodac command with the layer tracer installed.

Usage: python bench/trace_cli.py SPANS_JSON OP_ID COMMAND [ARGS...]

COMMAND and ARGS are what ``gpiodac`` takes. The spans and counters go to
SPANS_JSON; the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spans_file, op, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    import gpiodac.cli

    tracer = Tracer()
    tracer.op = op
    try:
        with tracer:
            return gpiodac.cli.main(argv)
    finally:
        spans_file.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


if __name__ == "__main__":
    raise SystemExit(main())
