"""Combinatorial primitives against independent oracles and known values."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpoly import (
    bell_via_egf,
    bernoulli,
    cache_info,
    combinatorics,
    clear_caches,
    construct_bell_polynomial,
    faulhaber_polynomial,
    power_sum_oracle,
    stirling2,
)
from bellpoly.rational_poly import RationalPolynomial


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

    def test_row_sums_are_first_order_bell(self):
        # row sums of the triangle count all partitions of an n-set
        sums = [sum(stirling2(n, k) for k in range(n + 1)) for n in range(1, 9)]
        assert sums == [1, 2, 5, 15, 52, 203, 877, 4140]

    @given(n=st.integers(min_value=1, max_value=40), k=st.integers(min_value=1, max_value=45))
    def test_recurrence(self, n, k):
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestBernoulli:
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

    @given(r=st.integers(min_value=0, max_value=12), m=st.integers(min_value=0, max_value=200))
    @settings(max_examples=60)
    def test_polynomial_matches_oracle_random(self, r, m):
        assert faulhaber_polynomial(r).evaluate(m) == power_sum_oracle(r, m)


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
            binomials.append([combinatorics.binomial_row(n) for n in range(40)])
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


def test_cache_info_counts_every_table():
    clear_caches()
    assert set(cache_info().values()) == {0}
    construct_bell_polynomial(6)
    bell_via_egf(5, 3)
    info = cache_info()
    assert sorted(info) == [
        "bernoulli_numbers", "binomial_rows", "faulhaber_polynomials",
        "interpolated_polynomials", "recursion_cells", "stirling_rows",
    ]
    assert all(count > 0 for count in info.values()), info
    assert info["interpolated_polynomials"] == 6
    clear_caches()
    assert set(cache_info().values()) == {0}
