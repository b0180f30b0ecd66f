"""Exact arithmetic for iterated-exponential Bell numbers.

B(n, m) counts through m rounds of the exponential generating function
substitution: the EGF of round m + 1 is exp(E_m(x) - 1). The library
computes values by two independent routes, recovers B_n as a polynomial
in m by two more, and checks everything against itself.
"""

from __future__ import annotations

from . import bell_numbers as _bell_numbers
from . import combinatorics as _combinatorics
from . import polynomial as _polynomial
from .bell_numbers import (
    BellTable,
    ConsistencyError,
    TruncatedEGF,
    bell_via_egf,
    bell_via_recursion,
    egf_iterate,
)
from .combinatorics import (
    bernoulli,
    faulhaber_polynomial,
    power_sum_oracle,
    stirling2,
    stirling_row,
)
from .polynomial import (
    AsymptoticReport,
    BellPolynomial,
    asymptotic_report,
    bell_via_polynomial,
    construct_bell_polynomial,
    difference_polynomial,
    interpolate_bell_polynomial,
    leading_coefficient,
    verify_theorem,
)
from .rational_poly import RationalPolynomial

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "BellPolynomial",
    "BellTable",
    "ConsistencyError",
    "RationalPolynomial",
    "TruncatedEGF",
    "asymptotic_report",
    "bell_via_egf",
    "bell_via_polynomial",
    "bell_via_recursion",
    "bernoulli",
    "cache_info",
    "clear_caches",
    "construct_bell_polynomial",
    "difference_polynomial",
    "egf_iterate",
    "faulhaber_polynomial",
    "interpolate_bell_polynomial",
    "leading_coefficient",
    "power_sum_oracle",
    "stirling2",
    "stirling_row",
    "verify_theorem",
]


# Every memoized table by its cache_info() name; each has len() and clear().
_TABLES = {
    "stirling_rows": _combinatorics._STIRLING,
    "binomial_rows": _combinatorics._BINOMIAL,
    "bernoulli_numbers": _combinatorics._BERNOULLI,
    "faulhaber_polynomials": _combinatorics._FAULHABER,
    "recursion_cells": _bell_numbers._BELL,
    "interpolated_polynomials": _polynomial._FITS,
}


def clear_caches() -> None:
    """Empty every memoized table in place (mainly for tests that patch internals).

    The tables are the Stirling rows behind `stirling2` and
    `stirling_row`, the binomial rows that weight each `egf_iterate`
    step, the Bernoulli numbers, the Faulhaber polynomials behind
    `faulhaber_polynomial`, the recursion's grid of B(n, m), and the
    checked fits that `interpolate_bell_polynomial` stores in order of
    n. Each stays the same object; a call already running finishes on
    the entries it started with.
    """
    for table in _TABLES.values():
        table.clear()


def cache_info() -> dict[str, int]:
    """The number of entries in each memoized table, keyed by table.

    The keys are `stirling_rows`, `binomial_rows`, `bernoulli_numbers`,
    `faulhaber_polynomials`, `recursion_cells` (stored B(n, m) with
    n, m >= 1) and `interpolated_polynomials`; `clear_caches` sets
    every count to 0.
    """
    return {name: len(table) for name, table in _TABLES.items()}
