"""One closed-loop caller running an in-process workload.

Usage: python perfbench/inproc.py WORKLOAD SEED TRACE RECORD

Reads commands on stdin. `run S` runs the workload's queries, round after
round, until S seconds have passed, timing each query, and answers
`done`; the caller times the machine.py kernel in its own process before
the next command, while this one waits. Each answer is checked right after it is timed,
against the benchmark's reference and with tracing paused, so the
checks leave the library's memo tables alone and no answer is kept.
Prints one JSON line of results. With TRACE=1 the layer wrappers are
installed first and the spans and memo sizes are written to RECORD.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import bellpoly
import bellpoly.rendering

import tracing
import workloads


def values_query(query):
    n, m = query
    return bellpoly.bell_via_egf(n, m), bellpoly.bell_via_recursion(n, m)


def polynomials_query(query):
    n, m, digits, _ = query
    poly = bellpoly.construct_bell_polynomial(n)
    lead = bellpoly.verify_theorem(n)
    report = bellpoly.asymptotic_report(n, m)
    return poly, lead, report, bellpoly.rendering.decimal_expansion(report.ratio, digits)


def main(argv: list[str]) -> int:
    workload, seed, traced, record_path = argv
    tracer = None
    if traced == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run, check = (
        (values_query, workloads.check_value) if workload == "values"
        else (polynomials_query, workloads.check_polynomial)
    )
    queries = itertools.chain.from_iterable(workloads.rounds(workload, int(seed)))
    latencies, failures = [], []
    for command in sys.stdin:
        deadline = time.perf_counter() + float(command.split()[1])
        while time.perf_counter() < deadline:
            query = next(queries)
            if tracer:
                tracer.request = len(latencies)
            t0 = time.perf_counter()
            try:
                answer = run(query)
            except Exception as exc:  # counted as a failed query
                answer = exc
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.recording = False
            failure = check(query, answer)
            if failure:
                failures.append(failure)
            if tracer:
                tracer.recording = True
        print("done", flush=True)
    if tracer:
        record = {"spans": tracer.spans, "stats": tracing.process_stats(tracer)}
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    print(json.dumps({"latencies_s": latencies, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
