"""Combinatorial primitives against independent oracles and known values."""

import io
import math
import sys
import threading
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellpoly.cli
from bellpoly import (
    asymptotic_report,
    bell_numbers,
    bell_via_egf,
    bell_via_polynomial,
    bell_via_recursion,
    bernoulli,
    cache_info,
    combinatorics,
    clear_caches,
    construct_bell_polynomial,
    faulhaber_polynomial,
    interpolate_bell_polynomial,
    leading_coefficient,
    polynomial,
    power_sum_oracle,
    stirling2,
    stirling_row,
    verify_theorem,
)
from bellpoly.oracles import partition_block_counts
from bellpoly.rational_poly import RationalPolynomial
from bellpoly.selfcheck import run_selfcheck


class TestStirling:
    def test_known_values(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 3) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(5, 4) == 10
        assert stirling2(8, 3) == 966

    def test_out_of_range(self):
        assert stirling2(3, 5) == 0
        assert stirling2(4, 0) == 0
        with pytest.raises(ValueError):
            stirling2(-1, 0)
        with pytest.raises(ValueError):
            stirling2(3, -2)

    def test_enumeration_has_one_count_per_block_number(self):
        # counts[k] for k = 0..n, so the oracle lines up with S(n, 0..n)
        for n in range(9):
            counts = partition_block_counts(n)
            assert len(counts) == n + 1
            assert counts == stirling_row(n)

    def test_row_sums_are_first_order_bell(self):
        # row sums of the triangle count all partitions of an n-set
        sums = [sum(stirling2(n, k) for k in range(n + 1)) for n in range(1, 9)]
        assert sums == [1, 2, 5, 15, 52, 203, 877, 4140]

    @given(n=st.integers(min_value=1, max_value=40), k=st.integers(min_value=1, max_value=45))
    def test_recurrence(self, n, k):
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bernoulli_by_recurrence(count):
    """b_0, ..., b_(count-1) from sum(comb(k+1, j) * b_j for j in 0..k) = 0, k >= 1."""
    b = [Fraction(1)]
    for k in range(1, count):
        b.append(Fraction(-sum(math.comb(k + 1, j) * b[j] for j in range(k)), k + 1))
    return b


def power_sum_by_bernoulli(r, b):
    """P_r from the Bernoulli closed form, with the m**r/2 term written out:

        P_r(m) = m**(r+1)/(r+1) + m**r/2
                 + sum(comb(r+1, j) * b_j * m**(r+1-j) / (r+1) for j in 2..r)
    """
    coeffs = [Fraction(0)] * (r + 2)
    coeffs[r + 1] = Fraction(1, r + 1)
    if r >= 1:
        coeffs[r] = Fraction(1, 2)
    for j in range(2, r + 1):
        coeffs[r + 1 - j] = math.comb(r + 1, j) * b[j] / (r + 1)
    return RationalPolynomial(coeffs)


BERNOULLI_64 = bernoulli_by_recurrence(65)


class TestBernoulli:
    def test_matches_defining_recurrence(self):
        assert [bernoulli(k) for k in range(65)] == BERNOULLI_64

    def test_known_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestPowerSums:
    def test_oracle_known_values(self):
        assert power_sum_oracle(0, 10) == 10
        assert power_sum_oracle(1, 4) == 10
        assert power_sum_oracle(2, 3) == 14
        assert power_sum_oracle(4, 10) == 25333
        assert power_sum_oracle(5, 0) == 0

    def test_oracle_rejects_negative(self):
        with pytest.raises(ValueError):
            power_sum_oracle(-1, 3)
        with pytest.raises(ValueError):
            power_sum_oracle(2, -1)

    def test_polynomial_known_coefficients(self):
        assert faulhaber_polynomial(0) == RationalPolynomial([0, 1])
        assert faulhaber_polynomial(1) == RationalPolynomial(
            [0, Fraction(1, 2), Fraction(1, 2)]
        )
        assert faulhaber_polynomial(3) == RationalPolynomial(
            [0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        )

    def test_polynomial_matches_bernoulli_closed_form(self):
        for r in range(65):
            assert faulhaber_polynomial(r) == power_sum_by_bernoulli(r, BERNOULLI_64), r

    @given(r=st.integers(min_value=0, max_value=12), m=st.integers(min_value=0, max_value=200))
    @settings(max_examples=60)
    def test_polynomial_matches_oracle_random(self, r, m):
        assert faulhaber_polynomial(r).evaluate(m) == power_sum_oracle(r, m)


def test_binomial_rows_match_comb_and_are_counted():
    clear_caches()
    assert combinatorics.binomial_rows(0) == []
    rows = combinatorics.binomial_rows(12)
    assert rows == [tuple(math.comb(n, k) for k in range(n + 1)) for n in range(12)]
    assert cache_info()["binomial_rows"] == 12
    # a shorter prefix reads the stored rows and builds none
    assert all(r is s for r, s in zip(combinatorics.binomial_rows(5), rows))
    assert cache_info()["binomial_rows"] == 12
    combinatorics.binomial_rows(20)
    assert cache_info()["binomial_rows"] == 20
    with pytest.raises(ValueError):
        combinatorics.binomial_rows(-1)
    clear_caches()


def test_tables_survive_concurrent_fills():
    clear_caches()
    errors = []
    results = []
    binomials = []
    together = threading.Barrier(8, timeout=60)  # each table is filled by all threads at once

    def worker():
        try:
            together.wait()
            for n in range(1, 30):
                stirling2(n, max(1, n // 2))
            together.wait()
            for k in range(0, 20):
                bernoulli(k)
            together.wait()
            binomials.append(combinatorics.binomial_rows(40))
            together.wait()
            results.append([faulhaber_polynomial(r) for r in range(30)])
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so unguarded fills would collide
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # cross-checked against the inclusion-exclusion formula for S(n, k)
    assert stirling2(29, 14) == 2534474684137526739000
    # every thread got the one stored polynomial per r, equal to a fresh
    # single-thread build
    assert len(results) == 8
    assert all(all(p is q for p, q in zip(got, results[0])) for got in results)
    # one stored binomial row per n, equal to math.comb
    assert len(binomials) == 8
    assert all(all(r is s for r, s in zip(got, binomials[0])) for got in binomials)
    assert binomials[0] == [tuple(math.comb(n, k) for k in range(n + 1)) for n in range(40)]
    clear_caches()
    assert not combinatorics._FAULHABER._entries
    assert not combinatorics._BINOMIAL._entries
    fresh = [faulhaber_polynomial(r) for r in range(30)]
    assert results[0] == fresh
    assert all(p is not q for p, q in zip(results[0], fresh))
    clear_caches()


def module_tables():
    return [
        combinatorics._STIRLING, combinatorics._BINOMIAL, combinatorics._BERNOULLI,
        combinatorics._FAULHABER, bell_numbers._BELL, polynomial._FITS,
    ]


def test_cache_info_counts_every_table():
    clear_caches()
    assert set(cache_info().values()) == {0}
    construct_bell_polynomial(6)
    bell_via_egf(5, 3)
    bernoulli(4)
    info = cache_info()
    keys = [
        "bernoulli_numbers", "binomial_rows", "faulhaber_polynomials",
        "interpolated_polynomials", "recursion_cells", "stirling_rows",
    ]
    assert sorted(info) == keys
    assert all(count > 0 for count in info.values()), info
    assert info["interpolated_polynomials"] == 6
    tables = module_tables()
    clear_caches()
    # each table is emptied in place: the module globals keep their objects
    assert all(now is before for now, before in zip(module_tables(), tables))
    assert sorted(cache_info()) == keys
    assert set(cache_info().values()) == {0}


EGF_TABLES = {"binomial_rows"}
RECURSION_TABLES = {"stirling_rows", "recursion_cells"}
INTERPOLATION_TABLES = RECURSION_TABLES | {"interpolated_polynomials"}
BUILD_TABLES = {"stirling_rows", "faulhaber_polynomials"}
TELESCOPING_TABLES = INTERPOLATION_TABLES | BUILD_TABLES
ROUTES = {
    "bell_via_egf": (lambda: bell_via_egf(5, 3), EGF_TABLES),
    "bell_via_recursion": (lambda: bell_via_recursion(5, 3), RECURSION_TABLES),
    "interpolate_bell_polynomial": (lambda: interpolate_bell_polynomial(6), INTERPOLATION_TABLES),
    "verify_theorem": (lambda: verify_theorem(6), INTERPOLATION_TABLES),
    "construct_bell_polynomial": (lambda: construct_bell_polynomial(6), TELESCOPING_TABLES),
    # the telescoping build alone, without its check against the fits
    "_telescoped_levels": (lambda: list(polynomial._telescoped_levels(6)), BUILD_TABLES),
    "bell_via_polynomial": (lambda: bell_via_polynomial(6, 3), TELESCOPING_TABLES),
    "asymptotic_report": (lambda: asymptotic_report(6, 10), TELESCOPING_TABLES),
    "leading_coefficient": (lambda: leading_coefficient(6), set()),
}


def footprint(route):
    """The memo tables a route fills, starting from empty caches."""
    clear_caches()
    ROUTES[route][0]()
    filled = {name for name, count in cache_info().items() if count}
    clear_caches()
    return filled


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_memo_footprint(route):
    assert footprint(route) == ROUTES[route][1]


def test_route_independence():
    assert not footprint("bell_via_egf") & footprint("bell_via_recursion")
    # The construction checks each level against the interpolation, so the
    # two share every table the interpolation fills.
    overlap = footprint("interpolate_bell_polynomial") & footprint("construct_bell_polynomial")
    assert overlap == INTERPOLATION_TABLES
    # Known gap, ROADMAP item 7: the telescoping build, without its check,
    # reads the Stirling rows that the interpolation's samples read. Item 7
    # makes the build and the interpolation disjoint, and this pin goes.
    overlap = footprint("interpolate_bell_polynomial") & footprint("_telescoped_levels")
    assert overlap == {"stirling_rows"}


def module_containers():
    """The length of each module-level list, dict and set in the package.

    Tables registered in bellpoly._TABLES are left out, so only a cache
    kept outside them shows here.
    """
    tables = [id(table) for table in bellpoly._TABLES.values()]
    return {
        (module_name, name): len(value)
        for module_name, module in list(sys.modules.items())
        if module_name == "bellpoly" or module_name.startswith("bellpoly.")
        for name, value in vars(module).items()
        if isinstance(value, (list, dict, set)) and not name.startswith("__")
        and id(value) not in tables
    }


def test_every_cache_is_a_registered_table():
    clear_caches()
    before = module_containers()
    with redirect_stdout(io.StringIO()):
        assert run_selfcheck() == 0
    construct_bell_polynomial(12)
    bell_via_egf(10, 5)
    grown = {key: (before.get(key), size) for key, size in module_containers().items()
             if size != before.get(key)}
    assert grown == {}
    clear_caches()


def test_clear_caches_while_tables_fill():
    def queries():
        return (
            [stirling_row(n) for n in range(25)],
            combinatorics.binomial_rows(30),
            [bell_via_recursion(n, m) for n in range(1, 13) for m in range(1, 13)],
            [interpolate_bell_polynomial(n).poly for n in range(1, 16)],
        )

    clear_caches()
    expected = queries()  # fresh, in this thread alone
    clear_caches()
    errors = []
    results = []
    stop = threading.Event()

    def clearer():
        # a short wait between clears spreads them over the workers' fills;
        # a clearer that never waits clears in bursts between them
        while not stop.wait(1e-4):
            clear_caches()

    def worker():
        try:
            for _ in range(100):
                results.append(queries())
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    workers = [threading.Thread(target=worker) for _ in range(4)]
    clearing = threading.Thread(target=clearer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a clear lands inside fills
    try:
        clearing.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        stop.set()
        clearing.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers + [clearing])
    assert not errors, errors
    assert len(results) == 400
    assert all(got == expected for got in results)
    clear_caches()
