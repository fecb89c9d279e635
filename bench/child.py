"""Traced stand-in for the ``attnsim`` console script.

    python3 bench/child.py SPANS_JSON ARG...

Installs the benchmark's span wrappers, runs ``attnsim.cli.main`` on the
arguments as the console script does, writes the spans, model counters and
trace bytes to SPANS_JSON, and exits with main's exit code. ``attnsim`` is
imported from the path the caller puts on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracer

import attnsim.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    absent, _ = recorder.install()
    code = recorder.run_op(0, lambda: attnsim.cli.main(argv))
    Path(spans_path).write_text(
        json.dumps(
            {
                "spans": recorder.spans,
                "counters": recorder.counters,
                "trace_bytes": recorder.trace_bytes,
                "absent": absent,
            }
        ),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
