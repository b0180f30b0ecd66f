"""Inputs the library refuses, and the guards that refuse them.

Each guard here is reached by no other test: deleting it makes the
test for it fail.
"""

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bellpoly
from bellpoly import (
    BellPolynomial,
    ConsistencyError,
    RationalPolynomial,
    TruncatedEGF,
    asymptotic_report,
    bell_via_egf,
    bell_via_polynomial,
    bernoulli,
    construct_bell_polynomial,
    difference_polynomial,
    faulhaber_polynomial,
    interpolate_bell_polynomial,
    leading_coefficient,
    power_sum_oracle,
    stirling2,
    stirling_row,
    verify_theorem,
)
from bellpoly.combinatorics import binomial_rows
from bellpoly.oracles import egf_step_rational, partition_block_counts
from bellpoly.rendering import decimal_expansion, render_table

SRC = str(Path(bellpoly.__file__).parent.parent)

# Calls bell_via_recursion with each non-integer index as n and as m,
# on an empty grid or on one that already holds (3, 2) and (3, 3), and
# prints what each call raised or returned.
NON_INTEGER_INDICES = """
import json, sys
from fractions import Fraction
import bellpoly

outcomes = {}
for bad in (float("inf"), float("nan"), 2.5, 3.0, Fraction(2), Fraction(5, 2)):
    for args in ((bad, 2), (3, bad)):
        bellpoly.clear_caches()
        if sys.argv[1] == "warm":
            bellpoly.bell_via_recursion(8, 8)
        try:
            outcomes[repr(args)] = repr(bellpoly.bell_via_recursion(*args))
        except Exception as exc:
            outcomes[repr(args)] = type(exc).__name__
print(json.dumps(outcomes))
"""


@pytest.mark.parametrize("grid", ["cold", "warm"])
def test_recursion_rejects_non_integer_indices(grid):
    # In a child process with a timeout: an index that never counts down
    # to 0 (inf) would hang the fill while it holds the grid's lock.
    proc = subprocess.run(
        [sys.executable, "-c", NON_INTEGER_INDICES, grid],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, timeout=60, check=True,
    )
    outcomes = json.loads(proc.stdout)
    assert len(outcomes) == 12
    assert outcomes == dict.fromkeys(outcomes, "TypeError")


# Calls each function that reads a one-index memo table, and each
# public entry point that takes an index, with each non-integer index in
# each index argument, on empty tables or on tables already filled past
# it, and prints what each call raised or returned, and whether any
# table grew.
TABLE_INDICES = """
import json, sys
from fractions import Fraction
import bellpoly
from bellpoly.combinatorics import binomial_rows
from bellpoly.oracles import partition_block_counts
from bellpoly.rendering import decimal_expansion, render_table

calls = {
    "stirling2(n, 2)": lambda bad: bellpoly.stirling2(bad, 2),
    "stirling2(3, k)": lambda bad: bellpoly.stirling2(3, bad),
    "stirling_row": bellpoly.stirling_row,
    "binomial_rows": binomial_rows,
    "bernoulli": bellpoly.bernoulli,
    "faulhaber_polynomial": bellpoly.faulhaber_polynomial,
    "interpolate_bell_polynomial": bellpoly.interpolate_bell_polynomial,
    "construct_bell_polynomial": bellpoly.construct_bell_polynomial,
    "verify_theorem": bellpoly.verify_theorem,
    "TruncatedEGF.exponential": bellpoly.TruncatedEGF.exponential,
    "integer_coefficient": lambda bad: bellpoly.TruncatedEGF([1] * 5).integer_coefficient(bad),
    "bell_via_egf(n, 2)": lambda bad: bellpoly.bell_via_egf(bad, 2),
    "bell_via_egf(3, m)": lambda bad: bellpoly.bell_via_egf(3, bad),
    "power_sum_oracle(r, 3)": lambda bad: bellpoly.power_sum_oracle(bad, 3),
    "power_sum_oracle(2, m)": lambda bad: bellpoly.power_sum_oracle(2, bad),
    "partition_block_counts": partition_block_counts,
    "difference_polynomial": lambda bad: bellpoly.difference_polynomial(bad, []),
    "bell_via_polynomial(n, 2)": lambda bad: bellpoly.bell_via_polynomial(bad, 2),
    "bell_via_polynomial(3, m)": lambda bad: bellpoly.bell_via_polynomial(3, bad),
    "leading_coefficient": bellpoly.leading_coefficient,
    "asymptotic_report(n, 2)": lambda bad: bellpoly.asymptotic_report(bad, 2),
    "asymptotic_report(3, m)": lambda bad: bellpoly.asymptotic_report(3, bad),
    "decimal_expansion": lambda bad: decimal_expansion(Fraction(1, 3), bad),
    "render_table(n_max, 2)": lambda bad: render_table(bad, 2, "tsv"),
    "render_table(2, m_max)": lambda bad: render_table(2, bad, "tsv"),
}
outcomes = {}
for name, call in calls.items():
    for bad in (float("inf"), float("nan"), 2.5, 3.0, Fraction(2), Fraction(5, 2)):
        bellpoly.clear_caches()
        if sys.argv[1] == "warm":
            bellpoly.construct_bell_polynomial(8)
            bellpoly.bernoulli(8)
            bellpoly.bell_via_egf(8, 1)
        before = bellpoly.cache_info()
        try:
            outcome = repr(call(bad))
        except Exception as exc:
            outcome = type(exc).__name__
        if bellpoly.cache_info() != before:
            outcome += ", and a table grew"
        outcomes[f"{name} at {bad!r}"] = outcome
print(json.dumps(outcomes))
"""


@pytest.mark.parametrize("tables", ["cold", "warm"])
def test_tables_reject_non_integer_indices(tables):
    # In a child process with a timeout, as above: an infinite index
    # would otherwise fill a table forever while holding its lock.
    proc = subprocess.run(
        [sys.executable, "-c", TABLE_INDICES, tables],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, timeout=60, check=True,
    )
    outcomes = json.loads(proc.stdout)
    assert len(outcomes) == 150
    assert outcomes == dict.fromkeys(outcomes, "TypeError")


@pytest.mark.parametrize(
    "call",
    [
        lambda: RationalPolynomial([1, 2]).evaluate(0.5),
        lambda: RationalPolynomial().evaluate(0.5),
    ],
    ids=["evaluate", "evaluate-zero"],
)
def test_float_argument_to_evaluate_raises_type_error(call):
    with pytest.raises(TypeError, match=r"^evaluate takes an int or a Fraction, not float$"):
        call()


@pytest.mark.parametrize(
    "b2",
    [
        RationalPolynomial([1, -1]),  # D = 4 - 3m falls
        RationalPolynomial([1]),  # D = 4 has degree 0
        RationalPolynomial([1, 0, 1]),  # D = 4 + 3m**2 has degree 2
    ],
    ids=["falling", "degree-too-low", "degree-too-high"],
)
def test_difference_of_wrong_shape_raises(b2):
    lower = [BellPolynomial(1, RationalPolynomial([1])), BellPolynomial(2, b2)]
    with pytest.raises(ConsistencyError, match=r"^difference polynomial for n=3 has degree"):
        difference_polynomial(3, lower)


@pytest.mark.parametrize(
    "coeffs, n", [([1, Fraction(1, 3)], 1), ([1, 1, Fraction(1, 4)], 2)], ids=["a_1", "a_2"]
)
def test_non_integral_coefficient_raises(coeffs, n):
    with pytest.raises(ConsistencyError, match=rf"^{n}! \* a_{n} = .* is not an integer$"):
        TruncatedEGF(coeffs).integer_coefficient(n)


@pytest.mark.parametrize("constant", [0, 2, Fraction(1, 2)], ids=str)
def test_rational_step_rejects_wrong_constant_term(constant):
    with pytest.raises(ValueError, match=r"constant term != 1$"):
        egf_step_rational(TruncatedEGF([constant, 1]))


def stirling2_of_five(n):
    return stirling2(n, 5)


BELL_REFUSAL = "Bell numbers need non-negative indices"
POWER_SUM_REFUSAL = "power sums need non-negative arguments"
ASYMPTOTIC_REFUSAL = "asymptotic reports need n >= 1 and m >= 1"
TABLE_REFUSAL = "table bounds must be at least 1"

# Each call by its test id, with the exact message it raises at -1.
NEGATIVE_INDEX_MESSAGES = {
    "construct_bell_polynomial": (construct_bell_polynomial, "n must be non-negative"),
    "interpolate_bell_polynomial": (interpolate_bell_polynomial, "n must be non-negative"),
    "stirling_row": (stirling_row, "Stirling numbers need non-negative arguments"),
    "stirling2_of_five": (stirling2_of_five, "Stirling numbers need non-negative arguments"),
    "binomial_rows": (binomial_rows, "binomial rows need a non-negative count"),
    "bernoulli": (bernoulli, "Bernoulli numbers need a non-negative index"),
    "faulhaber_polynomial": (faulhaber_polynomial, "power-sum exponent must be non-negative"),
    # without its own guard, the empty series would raise a different ValueError
    "TruncatedEGF.exponential": (TruncatedEGF.exponential, "truncation order must be non-negative"),
    "partition_block_counts": (partition_block_counts, "set size must be non-negative"),
    "integer_coefficient": (
        lambda i: TruncatedEGF([1] * 5).integer_coefficient(i),
        "coefficient -1 is outside the truncation order 0..4",
    ),
    "bell_via_egf(n, 2)": (lambda i: bell_via_egf(i, 2), BELL_REFUSAL),
    "bell_via_egf(3, m)": (lambda i: bell_via_egf(3, i), BELL_REFUSAL),
    "power_sum_oracle(r, 3)": (lambda i: power_sum_oracle(i, 3), POWER_SUM_REFUSAL),
    "power_sum_oracle(2, m)": (lambda i: power_sum_oracle(2, i), POWER_SUM_REFUSAL),
    "difference_polynomial": (
        lambda i: difference_polynomial(i, [BellPolynomial(1, RationalPolynomial([1]))]),
        "difference polynomials are defined for n >= 2",
    ),
    "bell_via_polynomial(n, 2)": (lambda i: bell_via_polynomial(i, 2), BELL_REFUSAL),
    "bell_via_polynomial(3, m)": (lambda i: bell_via_polynomial(3, i), BELL_REFUSAL),
    "leading_coefficient": (leading_coefficient, "leading coefficients start at n = 1"),
    "verify_theorem": (verify_theorem, "the leading-coefficient law starts at n = 1"),
    "asymptotic_report(n, 2)": (lambda i: asymptotic_report(i, 2), ASYMPTOTIC_REFUSAL),
    "asymptotic_report(3, m)": (lambda i: asymptotic_report(3, i), ASYMPTOTIC_REFUSAL),
    "decimal_expansion": (
        lambda i: decimal_expansion(Fraction(1, 3), i), "digits must be non-negative"
    ),
    "render_table(n_max, 2)": (lambda i: render_table(i, 2, "tsv"), TABLE_REFUSAL),
    "render_table(2, m_max)": (lambda i: render_table(2, i, "tsv"), TABLE_REFUSAL),
}


@pytest.mark.parametrize(
    "call, message", NEGATIVE_INDEX_MESSAGES.values(), ids=list(NEGATIVE_INDEX_MESSAGES)
)
def test_negative_index_raises_value_error(call, message):
    before = bellpoly.cache_info()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(-1)
    assert bellpoly.cache_info() == before


# The entry points whose least index is above 0.
LEAST_INDEX = {
    "difference_polynomial": 2,
    "leading_coefficient": 1,
    "verify_theorem": 1,
    "asymptotic_report(n, 2)": 1,
    "asymptotic_report(3, m)": 1,
    "render_table(n_max, 2)": 1,
    "render_table(2, m_max)": 1,
}


@pytest.mark.parametrize("name", LEAST_INDEX)
def test_least_index_is_answered_and_one_below_it_refused(name):
    # A later check would raise a ValueError of its own at one below the
    # least index (verify_theorem(0) reaches leading_coefficient(0)), so
    # the message must be the entry point's.
    call, message = NEGATIVE_INDEX_MESSAGES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(LEAST_INDEX[name] - 1)
    call(LEAST_INDEX[name])
