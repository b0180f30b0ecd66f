"""Run one `bell` command in this fresh process with the layer wrappers on.

Usage: python perfbench/cold.py RECORD ARG...

Behaves like `python -m bellpoly ARG...` on stdout and exit code. The
start stamp is taken before anything else and the import of bellpoly.cli
is timed before the benchmark's own modules load. Stdout is closed as
soon as the command returns, so the caller's timing ends there; the
spans and memo sizes are then written to RECORD.
"""

import time

START_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

_t0 = time.perf_counter_ns()
import bellpoly.cli  # noqa: E402

IMPORT_NS = time.perf_counter_ns() - _t0

import json  # noqa: E402
import os  # noqa: E402

import tracing  # noqa: E402


def main(record_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        rc = bellpoly.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())  # end of output for the caller
    record = {
        "start_ns": START_NS,
        "import_ms": IMPORT_NS / 1e6,
        "spans": tracer.spans,
        "stats": tracing.process_stats(tracer),
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
