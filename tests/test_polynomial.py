"""Both polynomial constructions, the leading coefficient, asymptotics."""

import copy
import pickle
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellpoly.polynomial
from bellpoly import (
    AsymptoticReport,
    BellPolynomial,
    ConsistencyError,
    TruncatedEGF,
    asymptotic_report,
    bell_via_egf,
    bell_via_polynomial,
    bell_via_recursion,
    clear_caches,
    construct_bell_polynomial,
    difference_polynomial,
    interpolate_bell_polynomial,
    leading_coefficient,
    verify_theorem,
)
from bellpoly.combinatorics import stirling2
from bellpoly.rational_poly import RationalPolynomial

B3 = RationalPolynomial([1, Fraction(5, 2), Fraction(3, 2)])

fractions_st = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=20),
)
coeffs_st = st.lists(fractions_st, min_size=0, max_size=6)
polys_st = coeffs_st.map(RationalPolynomial)
scalars_st = st.one_of(st.integers(min_value=-30, max_value=30), fractions_st)


def stripped(cs):
    """A plain coefficient list as a tuple of Fractions, trailing zeros dropped."""
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_evaluate(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def reference_shift(cs, delta):
    """Coefficients of p(x + delta), by binomial expansion in Fractions."""
    out = [Fraction(0)] * len(cs)
    for j, c in enumerate(cs):
        for i in range(j + 1):
            out[i] += c * comb(j, i) * Fraction(delta) ** (j - i)
    return stripped(out)


def reference_product(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return stripped(out)


def padded_sum(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return stripped(x + sign * y for x, y in zip(a, b))


def falling_factorial_interpolation(n):
    """B_n as plain Fractions: sum(a_k * m(m-1)...(m-k+1) / k!) over the
    forward differences a_k of the samples at m = 0, with each falling
    factorial rebuilt and accumulated."""
    if n == 0:
        return (Fraction(1),)
    row = [bell_via_recursion(n, mm) for mm in range(n)]
    out = ()
    falling = (Fraction(1),)
    for k in range(n):
        out = padded_sum(out, [Fraction(row[0], factorial(k)) * c for c in falling])
        row = [b - a for a, b in zip(row, row[1:])]
        falling = reference_product(falling, [-k, 1])
    return out


def fraction_power_sums(count):
    """P_0, ..., P_{count-1} as plain Fractions, from Faulhaber's recurrence
    (m+1)**(r+1) - 1 = sum(C(r+1, k) * P_k(m) for k in 0..r), no Bernoulli."""
    sums = []
    for r in range(count):
        acc = [Fraction(comb(r + 1, i)) for i in range(r + 2)]
        acc[0] -= 1
        for k, p in enumerate(sums):
            acc = list(padded_sum(acc, [comb(r + 1, k) * c for c in p], -1))
        sums.append([c / (r + 1) for c in acc])
    return sums


def fraction_telescoping(n_max):
    """B_0, ..., B_{n_max} as plain Fractions, bottom-up: each level's first
    difference sum(S(j, k) * B_k(m-1)) telescoped coefficient by coefficient
    into power sums, B_j = 1 + sum(d_r * P_r)."""
    levels, shifted = [(Fraction(1),)], [None]
    power_sums = fraction_power_sums(n_max)
    for j in range(1, n_max + 1):
        diff = ()
        for k in range(1, j):
            diff = padded_sum(diff, [stirling2(j, k) * c for c in shifted[k]])
        poly = (Fraction(1),)
        for d, p in zip(diff, power_sums):
            poly = padded_sum(poly, [d * c for c in p])
        levels.append(poly)
        shifted.append(reference_shift(poly, -1))
    return levels


class TestEvalAndShift:
    def test_eval_known(self):
        assert RationalPolynomial().evaluate(7) == 0
        assert B3.evaluate(2) == 12
        assert B3.evaluate(100) == 15251
        # (3/2)(1/4) + (5/2)(1/2) + 1 = 3/8 + 10/8 + 8/8
        assert B3.evaluate(Fraction(1, 2)) == Fraction(21, 8)

    def test_shift_known(self):
        assert B3.shift(-1) == RationalPolynomial(
            [0, Fraction(-1, 2), Fraction(3, 2)]
        )
        assert RationalPolynomial([0, 1]).shift(3) == RationalPolynomial([3, 1])
        assert RationalPolynomial.constant(5).shift(-9) == (
            RationalPolynomial.constant(5)
        )

    def test_shift_pointwise(self):
        shifted = B3.shift(-1)
        for m in (0, 1, 2, 5):
            assert shifted.evaluate(m) == B3.evaluate(m - 1)

    @given(p=polys_st, delta=st.integers(min_value=-10, max_value=10),
           x=st.integers(min_value=-10, max_value=10))
    @settings(max_examples=80)
    def test_shift_agrees_with_eval(self, p, delta, x):
        assert p.shift(delta).evaluate(x) == p.evaluate(x + delta)

    @given(p=polys_st)
    def test_shift_zero_is_identity(self, p):
        assert p.shift(0) == p

    @given(p=polys_st, a=st.integers(min_value=-8, max_value=8),
           b=st.integers(min_value=-8, max_value=8))
    @settings(max_examples=80)
    def test_shifts_compose(self, p, a, b):
        assert p.shift(a).shift(b) == p.shift(a + b)


class TestIntegerCore:
    """The integer-numerator storage against plain Fraction arithmetic."""

    @given(cs=coeffs_st)
    def test_coefficients_are_fractions_in_order(self, cs):
        p = RationalPolynomial(cs)
        coefficients = p.coefficients
        assert coefficients == stripped(cs)
        assert all(type(c) is Fraction for c in coefficients)
        assert coefficients == tuple(Fraction(a, p.denominator) for a in p.numerators)

    @given(cs=coeffs_st, x=fractions_st)
    @settings(max_examples=80)
    def test_evaluate_at_fraction_points(self, cs, x):
        assert RationalPolynomial(cs).evaluate(x) == reference_evaluate(cs, x)

    @given(cs=coeffs_st, delta=fractions_st)
    @settings(max_examples=80)
    def test_shift_by_fraction_matches_binomial_expansion(self, cs, delta):
        assert RationalPolynomial(cs).shift(delta).coefficients == reference_shift(cs, delta)

    @given(p=polys_st, delta=fractions_st, x=fractions_st)
    @settings(max_examples=80)
    def test_shift_by_fraction_agrees_with_eval(self, p, delta, x):
        assert p.shift(delta).evaluate(x) == p.evaluate(x + delta)

    @given(p=polys_st, a=fractions_st, b=fractions_st)
    @settings(max_examples=60)
    def test_fraction_shifts_compose(self, p, a, b):
        assert p.shift(a).shift(b) == p.shift(a + b)

    @given(a=coeffs_st, b=coeffs_st, c=scalars_st)
    @settings(max_examples=80)
    def test_arithmetic_matches_fraction_reference(self, a, b, c):
        pa, pb = RationalPolynomial(a), RationalPolynomial(b)
        assert (pa - pb).coefficients == padded_sum(a, b, -1)
        assert (pa * pb).coefficients == reference_product(a, b)
        assert (pa * c).coefficients == stripped(x * c for x in a)
        assert (c * pa).coefficients == stripped(x * c for x in a)

    @given(terms=st.lists(st.tuples(scalars_st, coeffs_st), max_size=4))
    @settings(max_examples=60)
    def test_linear_combination_matches_fraction_reference(self, terms):
        expected = ()
        for c, cs in terms:
            expected = padded_sum(expected, [c * x for x in cs])
        combined = RationalPolynomial.linear_combination(
            [(c, RationalPolynomial(cs)) for c, cs in terms]
        )
        assert combined.coefficients == expected

    @given(cs=coeffs_st, k=st.integers(min_value=1, max_value=10 ** 6), other=polys_st)
    def test_equal_polynomials_have_equal_hashes(self, cs, k, other):
        p = RationalPolynomial(cs)
        for same in (
            RationalPolynomial([c * k for c in cs], k),
            RationalPolynomial.from_numerators([a * k for a in p.numerators], p.denominator * k),
            RationalPolynomial.linear_combination([(1, p), (1, other)]) - other,
        ):
            assert same == p
            assert hash(same) == hash(p)
            assert repr(same) == repr(p)

    @given(cs=coeffs_st, den=st.integers(max_value=0))
    def test_non_positive_denominator_is_refused(self, cs, den):
        with pytest.raises(ValueError):
            RationalPolynomial(cs, den)
        with pytest.raises(ValueError):
            RationalPolynomial.from_numerators([1, 2], den)

    def test_non_integer_denominator_is_refused(self):
        with pytest.raises(ValueError):
            RationalPolynomial([1, 2], Fraction(1, 2))


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_with_equal_hashes(copier):
    bell = construct_bell_polynomial(6)
    originals = [
        RationalPolynomial(),
        RationalPolynomial.constant(5),
        RationalPolynomial([Fraction(1, 3), 0, Fraction(-7, 4)]),
        bell,
        TruncatedEGF.exponential(5),
        asymptotic_report(4, 100),
    ]
    for original in originals:
        same = copier(original)
        assert same == original
        assert hash(same) == hash(original)
        assert repr(same) == repr(original)


@pytest.mark.parametrize(
    "record, field",
    [
        (TruncatedEGF.exponential(3), "coeffs"),
        (BellPolynomial(2, RationalPolynomial([1, 1])), "poly"),
        (AsymptoticReport(exact=176, leading=Fraction(150), ratio=Fraction(88, 75)), "ratio"),
        (RationalPolynomial([1, 1]), "_nums"),
    ],
    ids=["TruncatedEGF", "BellPolynomial", "AsymptoticReport", "RationalPolynomial"],
)
def test_records_are_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


def test_value_types_hold_no_instance_dict():
    for value in [
        TruncatedEGF.exponential(3),
        construct_bell_polynomial(4),
        asymptotic_report(3, 10),
        RationalPolynomial([1, 1]),
    ]:
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(TypeError):
            vars(value)


def test_records_compare_by_class_and_fields():
    report = AsymptoticReport(exact=176, leading=Fraction(150), ratio=Fraction(88, 75))
    assert report == asymptotic_report(3, 10)
    assert report != (176, Fraction(150), Fraction(88, 75))
    assert repr(report) == (
        "AsymptoticReport(exact=176, leading=Fraction(150, 1), ratio=Fraction(88, 75))"
    )
    line = RationalPolynomial([1, 1])
    assert BellPolynomial(2, line) != BellPolynomial(3, line)


class TestInterpolation:
    def test_small_cases(self):
        assert interpolate_bell_polynomial(0).poly == RationalPolynomial.constant(1)
        assert interpolate_bell_polynomial(1).poly == RationalPolynomial.constant(1)
        assert interpolate_bell_polynomial(2).poly == RationalPolynomial([1, 1])
        assert interpolate_bell_polynomial(3).poly == B3

    def test_agrees_beyond_held_out_sample(self):
        for n in range(1, 21):
            interpolated = interpolate_bell_polynomial(n).poly
            constructed = construct_bell_polynomial(n).poly
            for m in range(n + 1, n + 4):
                expected = bell_via_egf(n, m)
                assert interpolated.evaluate(m) == expected
                assert constructed.evaluate(m) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            interpolate_bell_polynomial(-1)

    def test_corrupted_samples_are_caught(self, monkeypatch):
        real = bell_via_recursion

        def corrupted(n, m):
            value = real(n, m)
            return value + 1 if (n, m) == (4, 4) else value

        clear_caches()  # a stored fit would hide the fault
        monkeypatch.setattr(bellpoly.polynomial, "bell_via_recursion", corrupted)
        try:
            with pytest.raises(ConsistencyError):
                interpolate_bell_polynomial(4)
        finally:
            monkeypatch.undo()
            clear_caches()

    def test_corrupted_inner_sample_is_caught_by_the_held_out_check(self, monkeypatch):
        real = bell_via_recursion

        def corrupted(n, m):
            value = real(n, m)
            return value + 1 if (n, m) == (7, 3) else value

        clear_caches()  # a stored fit would hide the fault
        monkeypatch.setattr(bellpoly.polynomial, "bell_via_recursion", corrupted)
        try:
            with pytest.raises(ConsistencyError, match=r"interpolation for n=7 gives \S+ at m=7"):
                interpolate_bell_polynomial(7)
            with pytest.raises(ConsistencyError, match=r"\bn=7\b"):
                construct_bell_polynomial(9)
        finally:
            monkeypatch.undo()
            clear_caches()

    def test_matches_falling_factorial_reference(self):
        for n in range(41):
            expected = falling_factorial_interpolation(n)
            assert interpolate_bell_polynomial(n).poly.coefficients == expected


class TestInterpolationTable:
    def test_repeat_call_returns_the_stored_fit(self):
        clear_caches()
        first = interpolate_bell_polynomial(9)
        assert interpolate_bell_polynomial(9) is first
        assert bellpoly.cache_info()["interpolated_polynomials"] == 9

    def test_cold_call_stores_every_lower_fit_in_order(self):
        clear_caches()
        interpolate_bell_polynomial(9)
        stored = list(bellpoly.polynomial._FITS._entries)
        assert [fit.n for fit in stored] == list(range(1, 10))
        assert all(fit is interpolate_bell_polynomial(fit.n) for fit in stored)
        assert bellpoly.cache_info()["interpolated_polynomials"] == 9

    def test_failed_fit_stores_nothing(self, monkeypatch):
        real = bell_via_recursion

        def corrupted(n, m):
            value = real(n, m)
            return value + 1 if (n, m) == (6, 2) else value

        clear_caches()
        monkeypatch.setattr(bellpoly.polynomial, "bell_via_recursion", corrupted)
        try:
            with pytest.raises(ConsistencyError, match=r"interpolation for n=6"):
                interpolate_bell_polynomial(6)
            assert bellpoly.cache_info()["interpolated_polynomials"] == 5
            monkeypatch.undo()
            assert interpolate_bell_polynomial(6).poly.coefficients == (
                falling_factorial_interpolation(6)
            )
        finally:
            monkeypatch.undo()
            clear_caches()

    def test_warm_queries_read_no_samples(self, monkeypatch):
        reads = []
        real = bellpoly.polynomial.bell_via_recursion

        def counted(n, m):
            reads.append((n, m))
            return real(n, m)

        def queries():
            construct_bell_polynomial(12)
            verify_theorem(12)
            asymptotic_report(12, 10 ** 6)

        monkeypatch.setattr(bellpoly.polynomial, "bell_via_recursion", counted)
        queries()  # warm-up: fits whatever is not stored yet
        reads.clear()
        queries()
        assert reads == []

    def test_concurrent_fills_store_one_fit_per_n(self):
        clear_caches()
        results = []
        errors = []
        together = threading.Barrier(8, timeout=60)

        def worker():
            try:
                together.wait()
                results.append([interpolate_bell_polynomial(n) for n in range(1, 31)])
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
        assert len(results) == 8
        assert all(all(p is q for p, q in zip(got, results[0])) for got in results)
        assert bellpoly.cache_info()["interpolated_polynomials"] == 30
        assert results[0][17].poly.coefficients == falling_factorial_interpolation(18)
        clear_caches()


class TestDifferencePolynomial:
    def test_n2_is_constant_one(self):
        lower = [interpolate_bell_polynomial(1)]
        assert difference_polynomial(2, lower) == RationalPolynomial.constant(1)

    def test_n3_known_coefficients(self):
        lower = [interpolate_bell_polynomial(k) for k in (1, 2)]
        d = difference_polynomial(3, lower)
        assert d == RationalPolynomial([1, 3])
        assert d.evaluate(2) == 12 - 5
        assert d.evaluate(1) == 5 - 1

    def test_matches_value_differences(self):
        lower = []
        for n in range(1, 9):
            lower.append(interpolate_bell_polynomial(n))
            if n < 2:
                continue
            d = difference_polynomial(n, lower)
            for m in range(1, 6):
                assert d.evaluate(m) == (
                    bell_via_recursion(n, m) - bell_via_recursion(n, m - 1)
                )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            difference_polynomial(1, [])
        with pytest.raises(ValueError):
            difference_polynomial(3, [interpolate_bell_polynomial(1)])
        misordered = [interpolate_bell_polynomial(2), interpolate_bell_polynomial(1)]
        with pytest.raises(ValueError):
            difference_polynomial(3, misordered)


class TestConstruction:
    def test_small_cases(self):
        assert construct_bell_polynomial(1).poly == RationalPolynomial.constant(1)
        assert construct_bell_polynomial(3).poly == B3
        assert construct_bell_polynomial(4).poly.evaluate(5) == 561

    @pytest.mark.parametrize("n", [9, 18])
    def test_makes_no_shift(self, n, monkeypatch):
        calls = []
        real = RationalPolynomial.shift

        def counted(self, delta):
            calls.append(delta)
            return real(self, delta)

        monkeypatch.setattr(RationalPolynomial, "shift", counted)
        construct_bell_polynomial(n)
        assert calls == []

    def test_subleading_coefficient_closed_form(self):
        # The m^(n-2) coefficient is b_n = a_n (n-1)(4 - H_{n-1})/3, with
        # a_n = n!/2^(n-1) and H the harmonic numbers: it turns negative
        # once H_{n-1} passes 4.
        subleading = {}
        for n in range(2, 41):
            harmonic = sum(Fraction(1, k) for k in range(1, n))
            b = Fraction(factorial(n), 2 ** (n - 1)) * (n - 1) * (4 - harmonic) / 3
            assert construct_bell_polynomial(n).poly.coefficient(n - 2) == b
            assert interpolate_bell_polynomial(n).poly.coefficient(n - 2) == b
            subleading[n] = b
        assert subleading[31] > 0 > subleading[32]

    def test_matches_fraction_telescoping_reference(self):
        reference = fraction_telescoping(40)
        for n in range(41):
            assert construct_bell_polynomial(n).poly.coefficients == reference[n]

    def test_every_level_is_checked_against_interpolation(self, monkeypatch):
        real = bellpoly.polynomial.stirling_row

        def corrupted(n):
            row = real(n)  # S(6, 3) off by one
            return (*row[:3], row[3] + 1, *row[4:]) if n == 6 else row

        monkeypatch.setattr(bellpoly.polynomial, "stirling_row", corrupted)
        with pytest.raises(ConsistencyError, match=r"\bn=6\b"):
            construct_bell_polynomial(8)


class TestLeadingCoefficient:
    def test_known_values(self):
        assert leading_coefficient(1) == 1
        assert leading_coefficient(3) == Fraction(3, 2)
        assert leading_coefficient(5) == Fraction(15, 2)
        assert leading_coefficient(8) == 315

    def test_closed_form_up_to_the_cli_limit(self):
        # The CLI accepts n up to 64; selfcheck covers n = 1..12 only.
        for n in range(1, 65):
            assert leading_coefficient(n) == Fraction(factorial(n), 2 ** (n - 1))

    def test_verify_theorem_returns_the_value(self):
        assert verify_theorem(1) == 1
        assert verify_theorem(3) == Fraction(3, 2)
        assert verify_theorem(10) == Fraction(factorial(10), 2 ** 9)
        with pytest.raises(ValueError):
            verify_theorem(0)

    def test_verify_theorem_catches_mismatch(self, monkeypatch):
        monkeypatch.setattr(
            bellpoly.polynomial, "leading_coefficient", lambda n: Fraction(999)
        )
        with pytest.raises(ConsistencyError):
            bellpoly.polynomial.verify_theorem(4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            leading_coefficient(0)


class TestValueRoute:
    def test_non_integer_value_raises_through_both_callers(self, monkeypatch):
        half = BellPolynomial(3, RationalPolynomial([Fraction(1, 2)]))
        monkeypatch.setattr(bellpoly.polynomial, "construct_bell_polynomial", lambda n: half)
        with pytest.raises(ConsistencyError, match=r"B\(3, 2\) evaluated to non-integer 1/2"):
            bell_via_polynomial(3, 2)
        with pytest.raises(ConsistencyError, match="non-integer"):
            asymptotic_report(3, 2)


class TestAsymptotics:
    def test_reference_comparison_points(self):
        for m, exact, leading in (
            (100, 15251, 15000),
            (100000, 15000250001, 15000000000),
            (100000000, 15000000250000001, 15000000000000000),
        ):
            report = asymptotic_report(3, m)
            assert report.exact == exact
            assert report.leading == leading
            assert report.ratio == Fraction(exact, leading)

    def test_degenerate_n1(self):
        report = asymptotic_report(1, 7)
        assert report.exact == 1
        assert report.leading == 1
        assert report.ratio == 1

    def test_ratio_closed_form_for_n3(self):
        # (B_3(m) / ((3/2) m^2)) - 1 == 5/(3m) + 2/(3 m^2), exactly
        for m in (1, 10, 100, 12345):
            report = asymptotic_report(3, m)
            assert report.ratio - 1 == Fraction(5, 3 * m) + Fraction(2, 3 * m * m)

    def test_ratio_descends_toward_one(self):
        ratios = [asymptotic_report(4, 10 ** e).ratio for e in range(1, 5)]
        assert all(r > 1 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            asymptotic_report(0, 5)
        with pytest.raises(ValueError):
            asymptotic_report(3, 0)
