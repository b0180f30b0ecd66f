"""Internal consistency audit wired to `bell selfcheck`.

Every invariant the library is built on gets re-verified from scratch:
combinatorial tables against brute-force enumeration, the two Bell
number routes against each other, both polynomial constructions against
each other, and the rendering layer against its byte-stability rules.
All checks run even after a failure so the report is complete; the exit
code is 0 only when every invariant holds.
"""

from __future__ import annotations

import io
import math
import sys
import time
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from .bell_numbers import TruncatedEGF, bell_via_egf, bell_via_recursion, egf_iterate
from .combinatorics import bernoulli, faulhaber_polynomial, power_sum_oracle, stirling2
from .oracles import egf_step_rational, partition_block_counts
from .polynomial import (
    construct_bell_polynomial,
    difference_polynomial,
    interpolate_bell_polynomial,
    leading_coefficient,
    verify_theorem,
)
from .rendering import render_poly, render_table


class CheckFailure(AssertionError):
    """An invariant did not hold."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _check_stirling_enumeration() -> None:
    for n in range(0, 13):
        counts = partition_block_counts(n)
        for k, count in enumerate(counts):
            _require(
                stirling2(n, k) == count,
                f"S({n}, {k}) = {stirling2(n, k)} but enumeration found {count}",
            )


def _check_stirling_near_diagonal() -> None:
    for n in range(2, 13):
        _require(
            stirling2(n, n - 1) == math.comb(n, 2),
            f"S({n}, {n - 1}) != C({n}, 2)",
        )


def _check_bernoulli_recurrence() -> None:
    for k in range(1, 21):
        acc = sum(math.comb(k + 1, j) * bernoulli(j) for j in range(k + 1))
        _require(acc == 0, f"Bernoulli recurrence fails at k = {k}")
        if k >= 3 and k % 2 == 1:
            _require(bernoulli(k) == 0, f"b_{k} should vanish")


def _check_faulhaber_oracle() -> None:
    for r in range(0, 13):
        p = faulhaber_polynomial(r)
        for m in range(0, 201):
            expected = power_sum_oracle(r, m)
            got = p.evaluate(m)
            _require(
                got == expected,
                f"sum of i^{r} for i <= {m}: polynomial gives {got}, "
                f"direct sum gives {expected}",
            )


def _check_faulhaber_shape() -> None:
    for r in range(0, 13):
        p = faulhaber_polynomial(r)
        _require(p.degree == r + 1, f"power-sum polynomial degree wrong at r = {r}")
        _require(p.constant_term() == 0, f"power-sum constant term nonzero at r = {r}")
        _require(
            p.leading_coefficient() == Fraction(1, r + 1),
            f"power-sum leading coefficient wrong at r = {r}",
        )


def _check_cross_method() -> None:
    for n in range(0, 13):
        for m in range(0, 7):
            via_egf = bell_via_egf(n, m)
            via_rec = bell_via_recursion(n, m)
            _require(
                via_egf == via_rec,
                f"B({n}, {m}): EGF gives {via_egf}, recursion gives {via_rec}",
            )


def _check_bell_base_cases() -> None:
    for m in range(0, 13):
        _require(bell_via_recursion(0, m) == 1, f"B(0, {m}) != 1")
        _require(bell_via_recursion(1, m) == 1, f"B(1, {m}) != 1")
    for n in range(0, 13):
        _require(bell_via_recursion(n, 0) == 1, f"B({n}, 0) != 1")


def _check_egf_integrality() -> None:
    # egf_iterate is integral by construction, so the integrality is
    # checked on the naive rational step, which also checks the kernel.
    series = TruncatedEGF.exponential(12)
    for step in range(6):
        oracle = egf_step_rational(series)
        for n in range(0, 13):
            value = math.factorial(n) * oracle.coeffs[n]
            _require(
                value.denominator == 1,
                f"n! * a_n non-integer at iteration {step + 1}, n = {n}",
            )
        _require(
            egf_iterate(series) == oracle,
            f"egf_iterate disagrees with the rational step at iteration {step + 1}",
        )
        series = oracle


def _check_monotone_in_m() -> None:
    for n in range(2, 13):
        prev = bell_via_recursion(n, 0)
        for m in range(1, 7):
            cur = bell_via_recursion(n, m)
            _require(cur > prev, f"B({n}, m) not increasing at m = {m}")
            prev = cur


def _check_first_difference() -> None:
    for n in range(2, 13):
        for m in range(1, 7):
            delta = bell_via_recursion(n, m) - bell_via_recursion(n, m - 1)
            direct = sum(
                bell_via_recursion(k, m - 1) * stirling2(n, k) for k in range(1, n)
            )
            _require(
                delta == direct,
                f"first difference mismatch at n = {n}, m = {m}",
            )


def _check_dual_construction() -> None:
    for n in range(0, 11):
        interpolated = interpolate_bell_polynomial(n)
        constructed = construct_bell_polynomial(n)
        _require(
            interpolated.poly == constructed.poly,
            f"interpolation and telescoping disagree at n = {n}",
        )


def _check_polynomial_shape() -> None:
    # B_n is integer-valued of degree n - 1, so by Polya it is an integer
    # combination of C(m, k) for k < n: every coefficient times (n-1)! is
    # an integer.
    for n in range(1, 11):
        p = construct_bell_polynomial(n).poly
        _require(p.degree == n - 1, f"degree != n - 1 at n = {n}")
        _require(p.constant_term() == 1, f"constant term != 1 at n = {n}")
        _require(
            math.factorial(n - 1) % p.denominator == 0,
            f"denominator {p.denominator} does not divide (n-1)! at n = {n}",
        )


def _check_leading_coefficient() -> None:
    for n in range(1, 13):
        closed = verify_theorem(n)  # raises on any three-way mismatch
        built = construct_bell_polynomial(n).poly.leading_coefficient()
        _require(
            built == closed,
            f"leading coefficient mismatch at n = {n}: "
            f"telescoping gives {built}, n!/2^(n-1) gives {closed}",
        )


def _check_poly_value_consistency() -> None:
    for n in range(1, 11):
        p = construct_bell_polynomial(n).poly
        for m in range(0, 11):
            via_poly = p.evaluate(m)
            via_rec = bell_via_recursion(n, m)
            _require(
                via_poly == via_rec,
                f"polynomial value {via_poly} != recursion {via_rec} "
                f"at n = {n}, m = {m}",
            )


def _check_ratio_convergence() -> None:
    lead = leading_coefficient(3)
    prev = None
    for m in (10, 100, 1000, 10000):
        ratio = Fraction(bell_via_recursion(3, m)) / (lead * m ** 2)
        _require(ratio > 1, f"ratio not above 1 at m = {m}")
        if prev is not None:
            _require(ratio < prev, f"|ratio - 1| not shrinking at m = {m}")
        prev = ratio


def _check_telescoping_identity() -> None:
    for n in range(2, 11):
        p = interpolate_bell_polynomial(n).poly
        lower = [interpolate_bell_polynomial(k) for k in range(1, n)]
        d = difference_polynomial(n, lower)
        _require(
            p - p.shift(-1) == d,
            f"B_{n}(m) - B_{n}(m - 1) does not equal the difference "
            f"polynomial",
        )


def _check_byte_stability() -> None:
    for fmt, payload in (
        ("tsv", render_table(6, 4, "tsv")),
        ("json", render_table(6, 4, "json")),
        ("markdown", render_table(6, 4, "markdown")),
        ("json", render_poly(5, "json")),
    ):
        _require(payload.endswith("\n"), f"{fmt} payload missing newline")
        _require("\r" not in payload, f"{fmt} payload has carriage return")
    again = render_table(6, 4, "tsv")
    _require(
        again == render_table(6, 4, "tsv"),
        "repeated rendering not byte-identical",
    )


def _check_poly_value_round_trip() -> None:
    import json as _json

    for n in range(1, 7):
        doc = _json.loads(render_poly(n, "json"))
        coeffs = [Fraction(c) for c in doc["coefficients"]]
        for m in range(0, n + 1):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * m + c
            _require(
                acc == bell_via_recursion(n, m),
                f"rendered coefficients do not reproduce B({n}, {m})",
            )


def _check_cli_exit_codes() -> None:
    from . import cli

    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["value", "--n", "3", "--m", "2"])
    _require(rc == 0, "value command should exit 0")
    _require(out.getvalue() == "12\n", f"unexpected value output {out.getvalue()!r}")
    for argv in (
        ["value", "--n", "3", "--m", "2", "--method", "bogus"],
        ["table", "--n-max", "0"],
    ):
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                cli.main(argv)
        except SystemExit as exc:
            _require(exc.code == 2, f"usage error should exit 2, got {exc.code}")
        else:
            raise CheckFailure(f"bad usage {argv} did not raise a usage error")


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("stirling2 matches set-partition enumeration", _check_stirling_enumeration),
    ("stirling2 near-diagonal identity S(n,n-1) = C(n,2)", _check_stirling_near_diagonal),
    ("bernoulli defining recurrence and odd vanishing", _check_bernoulli_recurrence),
    ("faulhaber matches power-sum oracle", _check_faulhaber_oracle),
    ("faulhaber shape (degree, constant term, leading 1/(r+1))", _check_faulhaber_shape),
    ("cross-method equivalence (EGF vs recursion)", _check_cross_method),
    ("bell base rows and columns", _check_bell_base_cases),
    ("EGF integrality of n!*a_n", _check_egf_integrality),
    ("bell monotonicity in m", _check_monotone_in_m),
    ("bell first-difference identity", _check_first_difference),
    ("dual-construction equality", _check_dual_construction),
    ("bell polynomial shape (degree, constant term, rational coefficients)", _check_polynomial_shape),
    ("leading coefficient n!/2^(n-1) via halving recurrence", _check_leading_coefficient),
    ("polynomial/recursion value consistency", _check_poly_value_consistency),
    ("asymptotic ratio convergence (n=3)", _check_ratio_convergence),
    ("polynomial telescoping identity", _check_telescoping_identity),
    ("byte-stable rendering", _check_byte_stability),
    ("poly/value round-trip", _check_poly_value_round_trip),
    ("CLI exit-code discipline", _check_cli_exit_codes),
)


def run_selfcheck(stream: io.TextIOBase | None = None) -> int:
    """Run every check, print one line per check, return 0 or 1.

    Each check's wall time goes to stderr, one line per finished check
    in order, so that the report itself stays byte-stable.
    """
    out = stream if stream is not None else sys.stdout
    failures: list[str] = []
    for name, check in CHECKS:
        start = time.perf_counter()
        try:
            check()
        except Exception as exc:
            failures.append(name)
            print(f"FAIL {name}: {exc}", file=out)
        else:
            print(f"ok   {name}", file=out)
        print(f"{(time.perf_counter() - start) * 1e3:9.1f} ms  {name}", file=sys.stderr)
    if failures:
        print(
            f"selfcheck: {len(failures)} of {len(CHECKS)} invariants failed; "
            f"first failed invariant: {failures[0]}",
            file=out,
        )
        return 1
    print(f"selfcheck: all {len(CHECKS)} invariants hold", file=out)
    return 0
