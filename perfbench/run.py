"""Benchmark for bellpoly, driving the library and the `bell` CLI from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload values|polynomials|cli-cold|all \
        --seed N --seconds S --trace 0|1

The workloads are described in workloads.py. With --trace 0 a run prints
every end-to-end metric of BENCHMARK.json, measured with no wrappers
installed. With --trace 1 it prints every per-layer metric: it runs the
workload untraced and then traced for S seconds each, in fresh processes
on the same inputs, and reports the difference in throughput as the
tracing overhead. End-to-end times are scaled to a reference machine
speed (machine.py) and printed raw beside. Every answer is checked; the
last line of stdout is one JSON object with correct, attempted, failed
and metrics. Spans and full results go to .bench_out/.

The library is imported from ./src, compiled there first. Each cold
process is timed by os.wait4, which also gives its peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Cold starts behind setup_s, half before the window and half after it.
SETUP_PROBES = 10
# The in-process window runs in CHUNKS chunks; before each and after the
# last, this process times the machine.py kernel KERNEL_RUNS times while
# the worker waits.
CHUNKS = 10
KERNEL_RUNS = 5
# Cold `bell selfcheck` runs: selfcheck_s on cli-cold, and the cli, oracles
# and selfcheck layers of every traced run.
SELFCHECKS = 3
CHILD_TIMEOUT_S = 170
# What a process must import before it can answer the workload's first query.
READY_IMPORTS = {
    "values": "import bellpoly",
    "polynomials": "import bellpoly, bellpoly.rendering",
    "cli-cold": "import bellpoly.cli",
}
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Child:
    rc: int
    stdout: str
    stderr: str
    seconds: float  # launch to the end of its stdout
    ready_s: float | None  # launch to its first line of stdout, when asked for
    maxrss_kb: int
    launch_ns: int


def run_child(argv: list[str], env: dict, first_line: bool = False, drive=None) -> Child:
    """Run argv from the repository root and wait until it has ended.

    With first_line, also time its first line of stdout. `drive(proc)`,
    if given, talks to the child over stdin and stdout before the rest
    of its output is read.
    """
    with tempfile.TemporaryFile(dir=OUT) as err:
        launch_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.PIPE if drive else subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.daemon = True
        killer.start()
        try:
            head, ready = b"", None
            if drive:
                drive(proc)
                proc.stdin.close()
            if first_line:
                head = proc.stdout.readline()
                ready = time.perf_counter() - t0
            out = head + proc.stdout.read()
            seconds = time.perf_counter() - t0
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            proc.stdout.close()
            if proc.stdin:
                proc.stdin.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        return Child(proc.returncode, out.decode(), err.read().decode(errors="replace"),
                     seconds, ready, usage.ru_maxrss, launch_ns)


class Run:
    """One workload run: its processes, answers and measurements."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self.records = 0
        self.kernel: list[float] = []  # machine.py kernel times of the current phase

    def record_path(self) -> str:
        self.records += 1
        return str(self.dir / f"record-{self.records}.json")

    def setup_times(self, count: int) -> list[float]:
        code = READY_IMPORTS[self.workload] + "; print('ready', flush=True)"
        times = []
        for _ in range(count):
            child = run_child([sys.executable, "-c", code], self.env, first_line=True)
            if child.rc != 0 or not child.stdout.startswith("ready"):
                raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
            times.append(child.ready_s)
        return times

    def bell(self, args: tuple[str, ...], expected: tuple[str, ...], traced: bool):
        """One cold `bell` request, checked; returns (child, trace record or None)."""
        if traced:
            path = self.record_path()
            child = run_child([sys.executable, str(HERE / "cold.py"), path, *args], self.env)
        else:
            child = run_child([sys.executable, "-m", "bellpoly", *args], self.env)
        machine.sample(self.kernel)
        self.attempted += 1
        failure = workloads.check_cli(args, expected, child.rc, child.stdout)
        if failure:
            self.failures.append(failure)
        if not traced or child.rc != 0:
            return child, None
        with open(path) as fh:
            record = json.load(fh)
        record["interpreter_ms"] = (record["start_ns"] - child.launch_ns) / 1e6
        return child, record

    def selfchecks(self, traced: bool) -> tuple[list[float], list[dict]]:
        runs = [self.bell(("selfcheck",), (), traced) for _ in range(SELFCHECKS)]
        return [child.seconds for child, _ in runs], [record for _, record in runs if record]

    def inproc(self, traced: bool) -> tuple[dict, Child, dict | None]:
        path = self.record_path() if traced else ""
        argv = [sys.executable, str(HERE / "inproc.py"), self.workload, str(self.seed),
                "1" if traced else "0", path]

        def drive(proc):
            for _ in range(CHUNKS):
                machine.sample(self.kernel, KERNEL_RUNS)
                proc.stdin.write(f"run {self.seconds / CHUNKS}\n".encode())
                proc.stdin.flush()
                if proc.stdout.readline() != b"done\n":
                    return  # the worker failed; its exit code says so below
            machine.sample(self.kernel, KERNEL_RUNS)

        child = run_child(argv, self.env, drive=drive)
        if child.rc != 0:
            raise RuntimeError(f"{self.workload} worker failed: {child.stderr.strip()}")
        result = json.loads(child.stdout.splitlines()[-1])
        self.attempted += len(result["latencies_s"])
        self.failures += result["failures"]
        record = None
        if traced:
            with open(path) as fh:
                record = json.load(fh)
        return result, child, record

    def cli_loop(self, traced: bool) -> tuple[list[float], list[dict], int]:
        """Whole rounds of cold requests until SECONDS of request time have passed.

        Returns the request times, trace records and the largest peak RSS
        (KiB) of any request.
        """
        latencies, records, rss_kb = [], [], 0
        rounds = workloads.rounds("cli-cold", self.seed)
        while sum(latencies) < self.seconds:
            batch = [(args, workloads.expected_outputs(args)) for args in next(rounds)]
            for args, expected in batch:
                child, record = self.bell(args, expected, traced)
                latencies.append(child.seconds)
                rss_kb = max(rss_kb, child.maxrss_kb)
                if record:
                    records.append(record)
        return latencies, records, rss_kb

    def end_to_end(self) -> tuple[dict, dict]:
        self.kernel = []
        setup = self.setup_times(SETUP_PROBES // 2)
        if self.workload == "cli-cold":
            latencies, _, rss_kb = self.cli_loop(traced=False)
        else:
            result, child, _ = self.inproc(traced=False)
            latencies, rss_kb = result["latencies_s"], child.maxrss_kb
        setup += self.setup_times(SETUP_PROBES // 2)
        selfchecks = self.selfchecks(traced=False)[0] if self.workload == "cli-cold" else []
        pct, tail = tail_latency(latencies, workloads.TAIL_PERCENTILE)
        raw = {
            "throughput_qps": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup),
        }
        if selfchecks:
            raw["selfcheck_s"] = statistics.median(selfchecks)
        # setup_s stays raw: scaled by the kernel it spread more, not less.
        scale = machine.scale(self.kernel)
        metrics = {k: v * scale if k == "throughput_qps" else v / scale for k, v in raw.items()}
        metrics["setup_s"] = raw["setup_s"]
        metrics["peak_rss_mb"] = rss_kb / 1024
        notes = {k: f"raw {v:.6g}" for k, v in raw.items()}
        notes["latency_tail_ms"] += f", p{pct:g} of {len(latencies)} queries"
        notes["setup_s"] += f", median of {len(setup)} cold starts"
        notes["peak_rss_mb"] = f"machine {scale:.4g}x slower than the reference"
        if selfchecks:
            notes["selfcheck_s"] += f", median of {len(selfchecks)} cold runs"
        return metrics, notes

    def per_layer(self) -> tuple[dict, dict]:
        qps = []  # untraced, then traced, each at the reference machine speed
        for traced in (False, True):
            self.kernel = []
            if self.workload == "cli-cold":
                latencies, records, _ = self.cli_loop(traced)
            else:
                result, _, record = self.inproc(traced)
                latencies = result["latencies_s"]
            qps.append(len(latencies) / sum(latencies) * machine.scale(self.kernel))
        if self.workload == "cli-cold":
            query = cold = records + self.selfchecks(traced=True)[1]
            queries = len(query)
        else:
            query, queries = [record], len(latencies)
            cold = self.selfchecks(traced=True)[1]
        metrics = tracing.layer_metrics(query, queries, cold)
        metrics["tracing.overhead_qps"] = qps[1] - qps[0]
        notes = {"tracing.overhead_qps": f"traced {qps[1]:.4g} 1/s, untraced {qps[0]:.4g} 1/s"}
        with open(self.dir / "spans.json", "w") as fh:
            json.dump({"query": query, "cold": cold}, fh)
        return metrics, notes


def tail_latency(samples: list[float], highest: float) -> tuple[float, float]:
    """The highest ladder percentile up to `highest` with >= 10 samples beyond it.

    Nearest-rank percentile; a run too short for any of them reports its median.
    """
    ordered = sorted(samples)
    for pct in LADDER:
        rank = math.ceil(pct / 100 * len(ordered))
        if pct <= highest and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bellpoly" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout of bellpoly (src/bellpoly and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "bellpoly")],
                           cwd=ROOT, capture_output=True, text=True)
    if build.returncode != 0:
        print(f"perfbench: compiling src/bellpoly failed\n{build.stdout}{build.stderr}",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failures = {}, 0, []
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        values, notes = run.per_layer() if args.trace else run.end_to_end()
        # Reported but not in BENCHMARK.json: error_rate is 0 when all is well,
        # and selfcheck_s exists on cli-cold only and is too noisy to gate.
        extra = []
        if not args.trace:
            values["error_rate"] = len(run.failures) / run.attempted
            notes["error_rate"] = f"{len(run.failures)} of {run.attempted} queries failed"
            extra = [{"name": "error_rate", "unit": "ratio"}]
            if "selfcheck_s" in values:
                extra.append({"name": "selfcheck_s", "unit": "s"})
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in declared + extra:
            value = values[metric["name"]]
            note = notes.get(metric["name"], "")
            print(f"{name:<12} {metric['name']:<56} {value:>14.6g} {metric['unit']:<6} {note}")
        for metric in declared:
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        for failure in run.failures[:5]:
            print(f"{name:<12} FAILED {failure}")
        with open(run.dir / "result.json", "w") as fh:
            json.dump({"metrics": values, "notes": notes, "attempted": run.attempted,
                       "failures": run.failures}, fh, indent=1)
        attempted += run.attempted
        failures += run.failures
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
