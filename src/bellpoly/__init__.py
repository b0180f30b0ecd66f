"""Exact arithmetic for iterated-exponential Bell numbers.

B(n, m) counts through m rounds of the exponential generating function
substitution: the EGF of round m + 1 is exp(E_m(x) - 1). The library
computes values by two independent routes, recovers B_n as a polynomial
in m by two more, and checks everything against itself.
"""

from __future__ import annotations

from . import bell_numbers as _bell_numbers
from . import combinatorics as _combinatorics
from .bell_numbers import (
    BellTable,
    ConsistencyError,
    TruncatedEGF,
    bell_via_egf,
    bell_via_recursion,
    egf_iterate,
)
from .combinatorics import (
    BernoulliSequence,
    StirlingTable,
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
    "BernoulliSequence",
    "ConsistencyError",
    "RationalPolynomial",
    "StirlingTable",
    "TruncatedEGF",
    "asymptotic_report",
    "bell_via_egf",
    "bell_via_polynomial",
    "bell_via_recursion",
    "bernoulli",
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


def clear_caches() -> None:
    """Drop all memoized tables (mainly for tests that patch internals).

    The tables are the Stirling rows behind `stirling2` and
    `stirling_row`, the binomial rows that weight each `egf_iterate`
    step, the Bernoulli numbers, the Faulhaber polynomials behind
    `faulhaber_polynomial`, and the recursion's grid of B(n, m).
    """
    _combinatorics._reset_tables()
    _bell_numbers._reset_tables()
