"""Spans around the library's layers, installed from outside the library.

Each layer is a module of `bellpoly`. `install` replaces its public
functions with wrappers that record a span (name, start, end, parent,
request, n, m, note) in memory. Modules bind these functions with
`from ... import`, so every module that holds the same object gets the
wrapper, and `selfcheck.CHECKS` is rebuilt around wrapped checks. The
spans are written out when the process ends and aggregated by
`layer_metrics`, which derives each layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import re
import statistics
import sys
import time
import tracemalloc

# Span fields; a span is a list while its call runs and a tuple after.
NAME, START, END, PARENT, REQUEST, N, M, NOTE = range(8)

# (module, attribute, span name); the span name's prefix is its layer.
FUNCTIONS = (
    ("bell_numbers", "bell_via_egf", "bell_numbers.egf"),
    ("bell_numbers", "egf_iterate", "bell_numbers.egf_iterate"),
    ("bell_numbers", "bell_via_recursion", "bell_numbers.recursion"),
    ("polynomial", "interpolate_bell_polynomial", "polynomial.interpolate"),
    ("polynomial", "difference_polynomial", "polynomial.difference"),
    ("polynomial", "construct_bell_polynomial", "polynomial.construct"),
    ("polynomial", "leading_coefficient", "polynomial.leading_coefficient"),
    ("polynomial", "verify_theorem", "polynomial.verify_theorem"),
    ("polynomial", "asymptotic_report", "polynomial.asymptotic_report"),
    ("combinatorics", "faulhaber_polynomial", "combinatorics.faulhaber"),
    ("combinatorics", "power_sum_oracle", "combinatorics.power_sum_oracle"),
    ("rendering", "compute_value", "rendering.compute_value"),
    ("rendering", "decimal_expansion", "rendering.decimal_expansion"),
    ("rendering", "polynomial_str", "rendering.polynomial_str"),
    ("rendering", "render_table", "rendering.render_table"),
    ("rendering", "render_value", "rendering.render_value"),
    ("rendering", "render_poly", "rendering.render_poly"),
    ("rendering", "render_asympt", "rendering.render_asympt"),
    ("oracles", "partition_block_counts", "oracles.partition_block_counts"),
    ("selfcheck", "run_selfcheck", "selfcheck.run"),
    ("cli", "main", "cli.main"),
)
METHODS = (
    ("shift", "rational_poly.shift"),
    ("evaluate", "rational_poly.evaluate"),
    ("__mul__", "rational_poly.mul"),
    ("__rmul__", "rational_poly.mul"),
)
# Spans that keep their (n, m) arguments for the growth report.
SIZED = {"bell_numbers.egf", "bell_numbers.recursion", "polynomial.construct"}

LIBRARY_LAYERS = ("bell_numbers", "polynomial", "rational_poly", "combinatorics", "rendering")
COLD_LAYERS = ("cli", "oracles", "selfcheck")


def slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")[:51].rstrip("_")


def table_size(holder) -> int:
    """Entries held by a memo object: the summed lengths of its containers."""
    return sum(len(v) for v in vars(holder).values() if isinstance(v, (list, dict, tuple)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self.recording = True
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """fn with a span per call; `note` is a (before, after) pair from NOTES."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        sized = name in SIZED
        before_fn, note_fn = note or (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request, None, None, None]
            if sized:
                span[N] = args[0]
                span[M] = args[1] if len(args) > 1 else None
            before = before_fn() if before_fn else None
            index = len(spans)
            stack.append(index)
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note_fn:
                span[NOTE] = note_fn(result, before)
            # A tuple of plain values drops out of the garbage collector's
            # scans; a growing list of lists would make every full scan slower.
            spans[index] = tuple(span)
            return result

        return wrapper


def _bell_entries() -> int:
    return table_size(sys.modules["bellpoly.bell_numbers"]._BELL)


# Span notes: (state taken before the call, note from the result and that state).
NOTES = {
    "bell_numbers.recursion": (_bell_entries, lambda result, before: _bell_entries() - before),
    "rendering.compute_value": (lambda: None, lambda result, before: result[1]),
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a `bellpoly` module binds it."""
    importlib.import_module("bellpoly.cli")  # imports every layer
    modules = [m for k, m in sys.modules.items() if k == "bellpoly" or k.startswith("bellpoly.")]
    for module_name, attr, name in FUNCTIONS:
        original = getattr(sys.modules[f"bellpoly.{module_name}"], attr)
        wrapped = tracer.wrap(name, original, NOTES.get(name))
        tracer.originals[name] = original
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    cls = sys.modules["bellpoly.rational_poly"].RationalPolynomial
    for attr, name in METHODS:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    selfcheck = sys.modules["bellpoly.selfcheck"]
    selfcheck.CHECKS = tuple(
        (label, tracer.wrap(f"selfcheck.{slug(label)}", check)) for label, check in selfcheck.CHECKS
    )


def process_stats(tracer: Tracer) -> dict:
    """Memo sizes at the end of a traced process, read from outside.

    retained_kib replays the process's recursion calls on emptied caches
    under tracemalloc and counts what stays allocated from bell_numbers.py.
    """
    bell_numbers = sys.modules["bellpoly.bell_numbers"]
    combinatorics = sys.modules["bellpoly.combinatorics"]
    stats = {
        "bell_numbers.table_entries": table_size(bell_numbers._BELL),
        "combinatorics.stirling_rows": table_size(combinatorics._STIRLING),
        "combinatorics.bernoulli_len": table_size(combinatorics._BERNOULLI),
    }
    tracer.recording = False
    calls = [(s[N], s[M]) for s in tracer.spans if s[NAME] == "bell_numbers.recursion"]
    recursion = tracer.originals["bell_numbers.recursion"]
    sys.modules["bellpoly"].clear_caches()
    tracemalloc.start()
    try:
        for n, m in calls:
            recursion(n, m)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    owned = snapshot.filter_traces([tracemalloc.Filter(True, "*bell_numbers.py")])
    stats["bell_numbers.retained_kib"] = sum(s.size for s in owned.statistics("filename")) / 1024
    return stats


def _self_times(spans: list[list]) -> list[int]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _fit(points: list[tuple[tuple[float, ...], float]]) -> tuple[float, ...] | None:
    """Least-squares slopes of y on the xs (with an intercept), or None."""
    k = len(points[0][0]) + 1 if points else 0
    if len(points) <= k:
        return None
    rows = [(1.0,) + xs for xs, _ in points]
    a = [[sum(r[i] * r[j] for r in rows) for j in range(k)] for i in range(k)]
    b = [sum(r[i] * y for r, (_, y) in zip(rows, points)) for i in range(k)]
    for col in range(k):  # Gauss-Jordan elimination with partial pivoting
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-9:
            return None
        a[col], a[pivot], b[col], b[pivot] = a[pivot], a[col], b[pivot], b[col]
        for r in range(k):
            if r != col:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return tuple(b[i] / a[i][i] for i in range(1, k))


def _growth(spans: list[list], name: str, with_m: bool) -> tuple[float, float]:
    """Log-log slopes of a span's time against n (and m), per distinct size.

    Every call counts, memo hits too, so a memoized layer shows the cost
    growth callers actually see.
    """
    by_size: dict[tuple, list[int]] = {}
    for s in spans:
        if s[NAME] != name or s[N] is None or s[N] < 1 or (with_m and (s[M] or 0) < 1):
            continue
        key = (s[N], s[M]) if with_m else (s[N],)
        by_size.setdefault(key, []).append(s[END] - s[START])
    points = [
        (tuple(math.log(x) for x in key), math.log(max(statistics.median(ts), 1)))
        for key, ts in by_size.items()
    ]
    slopes = _fit(points) or (0.0, 0.0)
    return slopes[0], slopes[1] if with_m else 0.0


def _collect(records: list[dict], layers: tuple[str, ...]) -> tuple[list[list], list[int]]:
    """The spans of these layers across records, with their self times."""
    spans, own = [], []
    for rec in records:
        for span, t in zip(rec["spans"], _self_times(rec["spans"])):
            if span[NAME].split(".")[0] in layers:
                spans.append(span)
                own.append(t)
    return spans, own


def _totals(spans: list[list], own: list[int], per: int, out: dict[str, float]) -> None:
    """name.calls, name.ms and layer.self_ms, each divided by `per`."""
    per = max(per, 1)
    for s, t in zip(spans, own):
        name, layer = s[NAME], s[NAME].split(".")[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1 / per
        out[f"{name}.ms"] = out.get(f"{name}.ms", 0) + (s[END] - s[START]) / 1e6 / per
        out[f"{name}.self_ms"] = out.get(f"{name}.self_ms", 0) + t / 1e6 / per
        out[f"{layer}.self_ms"] = out.get(f"{layer}.self_ms", 0) + t / 1e6 / per


def layer_metrics(query: list[dict], queries: int, cold: list[dict]) -> dict[str, float]:
    """Per-layer metrics from traced process records.

    Library layers come from the workload's own query processes and are
    given per query; the cli layer comes from the cold `bell` processes of
    the run, per process, and oracles and selfcheck per `bell selfcheck`.
    Memo sizes take the largest over the query processes.
    """
    out: dict[str, float] = {}
    for name in [name for _, _, name in FUNCTIONS] + [name for _, name in METHODS]:
        out[f"{name}.calls"] = out[f"{name}.ms"] = 0.0
    for layer in LIBRARY_LAYERS + COLD_LAYERS + ("cli.main",):
        out[f"{layer}.self_ms"] = 0.0
    lib_spans, lib_own = _collect(query, LIBRARY_LAYERS)
    _totals(lib_spans, lib_own, queries, out)
    cli_spans, cli_own = _collect(cold, ("cli",))
    _totals(cli_spans, cli_own, len(cold), out)
    check_spans, check_own = _collect(cold, ("oracles", "selfcheck"))
    runs = sum(1 for s in check_spans if s[NAME] == "selfcheck.run")
    _totals(check_spans, check_own, runs, out)

    recursion = [s for s in lib_spans if s[NAME] == "bell_numbers.recursion"]
    out["bell_numbers.recursion.fill_ratio"] = (
        sum(1 for s in recursion if s[NOTE]) / len(recursion) if recursion else 0.0
    )
    for route in ("egf", "recursion", "poly"):
        out[f"rendering.route.{route}"] = sum(
            1 for s in lib_spans if s[NAME] == "rendering.compute_value" and s[NOTE] == route
        ) / max(queries, 1)
    for key in ("bell_numbers.table_entries", "bell_numbers.retained_kib",
                "combinatorics.stirling_rows", "combinatorics.bernoulli_len"):
        out[key] = max((rec["stats"][key] for rec in query), default=0)
    out["bell_numbers.egf.growth_n"], out["bell_numbers.egf.growth_m"] = _growth(
        lib_spans, "bell_numbers.egf", True)
    out["bell_numbers.recursion.growth_n"], out["bell_numbers.recursion.growth_m"] = _growth(
        lib_spans, "bell_numbers.recursion", True)
    out["polynomial.construct.growth_n"] = _growth(lib_spans, "polynomial.construct", False)[0]
    out["cli.interpreter_ms"] = statistics.median(r["interpreter_ms"] for r in cold)
    out["cli.import_ms"] = statistics.median(r["import_ms"] for r in cold)
    return out
