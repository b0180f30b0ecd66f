"""Both Bell-number routes against each other and against fixed values."""

from fractions import Fraction

import pytest

import bellpoly
from bellpoly import (
    BellTable,
    ConsistencyError,
    TruncatedEGF,
    bell_via_egf,
    bell_via_recursion,
    egf_iterate,
)
from bellpoly.oracles import egf_step_rational

# Reference grid for m = 1..5, n = 1..8.
KNOWN_GRID = {
    1: [1, 2, 5, 15, 52, 203, 877, 4140],
    2: [1, 3, 12, 60, 358, 2471, 19302, 167894],
    3: [1, 4, 22, 154, 1304, 12915, 146115, 1855570],
    4: [1, 5, 35, 315, 3455, 44590, 660665, 11035095],
    5: [1, 6, 51, 561, 7556, 120196, 2201856, 45592666],
}


class TestEGFIteration:
    def test_first_steps_from_exp(self):
        series = TruncatedEGF.exponential(4)
        assert [series.integer_coefficient(n) for n in range(1, 5)] == [1, 1, 1, 1]
        once = egf_iterate(series)
        assert [once.integer_coefficient(n) for n in range(1, 5)] == [1, 2, 5, 15]
        twice = egf_iterate(once)
        assert [twice.integer_coefficient(n) for n in range(1, 5)] == [1, 3, 12, 60]

    def test_integer_kernel_matches_rational_step(self):
        # orders 0..24 for 8 steps, and 64, the CLI's largest n, for 3
        for order, steps in [*((order, 8) for order in range(0, 25)), (64, 3)]:
            series = TruncatedEGF.exponential(order)
            for _ in range(steps):
                step = egf_iterate(series)
                assert step == egf_step_rational(series)
                series = step

    def test_rejects_non_integral_scaled_coefficient(self):
        coeffs = list(TruncatedEGF.exponential(6).coeffs)
        coeffs[3] += Fraction(1, 7)
        with pytest.raises(ConsistencyError, match=r"^3! \* a_3 = .* is not an integer$"):
            egf_iterate(TruncatedEGF(coeffs))

    def test_constant_one_is_a_fixpoint(self):
        series = TruncatedEGF((Fraction(1),))
        assert egf_iterate(series) == series

    def test_rejects_wrong_constant_term(self):
        with pytest.raises(ValueError):
            egf_iterate(TruncatedEGF((Fraction(2), Fraction(1))))

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            TruncatedEGF(())

    def test_entries_are_stored_as_fractions(self):
        from_ints = TruncatedEGF([1, 2, 3])
        from_fractions = TruncatedEGF((Fraction(1), Fraction(2), Fraction(3)))
        mixed = TruncatedEGF([1, Fraction(2), 3])
        assert from_ints == from_fractions == mixed
        for series in (from_ints, from_fractions, mixed):
            assert [type(c) for c in series.coeffs] == [Fraction] * 3
        assert TruncatedEGF([Fraction(4, 6)]).coeffs == (Fraction(2, 3),)

    @pytest.mark.parametrize("n", [-1, 5, 6])
    def test_integer_coefficient_outside_the_order(self, n):
        series = TruncatedEGF.exponential(4)
        with pytest.raises(ValueError, match=r"^coefficient -?\d+ is outside the truncation order 0\.\.4$"):
            series.integer_coefficient(n)
        assert series.integer_coefficient(4) == 1


class TestValues:
    def test_egf_route_known_values(self):
        assert bell_via_egf(5, 3) == 1304
        assert bell_via_egf(7, 4) == 660665
        assert bell_via_egf(3, 0) == 1
        assert bell_via_egf(0, 6) == 1

    def test_recursion_route_known_values(self):
        assert bell_via_recursion(8, 5) == 45592666
        assert bell_via_recursion(2, 3) == 4
        assert bell_via_recursion(1, 9999) == 1

    def test_full_known_grid(self):
        for m, row in KNOWN_GRID.items():
            assert [bell_via_recursion(n, m) for n in range(1, 9)] == row

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            bell_via_recursion(-1, 2)
        with pytest.raises(ValueError):
            bell_via_recursion(2, -1)
        with pytest.raises(ValueError):
            bell_via_egf(-3, 1)

    def test_scattered_fills_match_one_fill(self):
        # Each fill reads its own Stirling rows and carries its own previous
        # row; later fills must pick up the cells earlier ones left behind.
        whole = BellTable()
        whole.value(15, 64)
        scattered = BellTable()
        for n, m in ((3, 40), (12, 5), (8, 41), (15, 64)):
            assert scattered.value(n, m) == whole.value(n, m)
        for n in range(1, 16):
            for m in range(1, 65):
                assert scattered.value(n, m) == whole.value(n, m)
        for m, row in KNOWN_GRID.items():
            assert [scattered.value(n, m) for n in range(1, 9)] == row

    def test_fill_stores_exactly_the_cells_asked_for(self):
        # A fill at (n, m) stores the rectangle [1..n] x [1..m] and no more;
        # a second fill adds only the cells outside the first.
        bellpoly.clear_caches()
        bell_via_recursion(5, 7)
        assert bellpoly.cache_info()["recursion_cells"] == 5 * 7
        bell_via_recursion(8, 3)
        assert bellpoly.cache_info()["recursion_cells"] == 5 * 7 + 8 * 3 - 5 * 3
        bellpoly.clear_caches()

    def test_cell_by_cell_fill_reads_stirling_rows_only_for_missing_cells(self, monkeypatch):
        # Each fill runs up from the all-ones row m = 0 and reads a level's
        # Stirling row only for a missing cell: 50 * 20 = 1,000 row reads
        # holding 50 * (1 + ... + 20) = 10,500 weights S(n, 1..n) here, where
        # rebuilding every level's row on each miss read 77,000 weights.
        real = bellpoly.bell_numbers.stirling_row
        rows = weights = 0

        def counted(n):
            nonlocal rows, weights
            rows += 1
            weights += n
            return real(n)

        bellpoly.clear_caches()
        monkeypatch.setattr(bellpoly.bell_numbers, "stirling_row", counted)
        cells = {(n, m): bell_via_recursion(n, m) for m in range(1, 51) for n in range(1, 21)}
        assert rows <= 20 * 50
        assert weights <= 20 * 50 * 20
        whole = BellTable()
        whole.value(20, 50)
        assert cells == {key: whole.value(*key) for key in cells}
        for m, row in KNOWN_GRID.items():
            assert [cells[(n, m)] for n in range(1, 9)] == row
