"""The library names the benchmark's tracer reads from outside.

perfbench/tracing.py wraps functions and methods by name and counts the
memo tables through vars(); a rename in the library would break only
the benchmark's own suite, so the names are pinned here.
"""

import importlib
from pathlib import Path

import pytest

import bellpoly

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
