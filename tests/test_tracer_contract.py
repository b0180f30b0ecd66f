"""The library names the benchmark's tracer reads from outside.

perfbench/tracing.py wraps functions and methods by name and counts the
memo tables through vars(); a rename in the library would break only
the benchmark's own suite, so the names are pinned here. BENCHMARK.json
declares one per-layer metric per selfcheck label, which is pinned too.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

import bellpoly
from bellpoly import selfcheck

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_function_and_method_exists(tracing):
    for module_name, attr, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"bellpoly.{module_name}")
        assert callable(getattr(module, attr, None)), f"bellpoly.{module_name}.{attr}"
    for attr, _ in tracing.METHODS:
        assert callable(getattr(bellpoly.RationalPolynomial, attr, None)), attr


def test_counted_tables_hold_their_entries_in_vars(tracing):
    bellpoly.bell_via_recursion(6, 4)
    bellpoly.bernoulli(8)
    for module, name in [
        (bellpoly.bell_numbers, "_BELL"),
        (bellpoly.combinatorics, "_STIRLING"),
        (bellpoly.combinatorics, "_BERNOULLI"),
    ]:
        table = getattr(module, name)
        assert any(isinstance(v, (list, dict)) for v in vars(table).values()), name
        # the tracer counts what cache_info() counts
        assert tracing.table_size(table) == len(table) > 0, name


def test_every_selfcheck_label_has_its_declared_metric(tracing):
    # A renamed check would otherwise pass here and fail only a traced
    # benchmark run, with a KeyError on the metric it no longer reports.
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    timed = {e["name"] for e in declared if re.fullmatch(r"selfcheck\..+\.ms", e["name"])}
    expected = {f"selfcheck.{tracing.slug(label)}.ms" for label, _ in selfcheck.CHECKS}
    assert len(expected) == len(selfcheck.CHECKS), "two labels share a slug"
    assert timed == expected
