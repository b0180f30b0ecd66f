"""Rendering: exact decimal strings, fraction strings, rendered payloads."""

import decimal
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellpoly.rational_poly import RationalPolynomial
from bellpoly.rendering import (
    AUTO_POLY_THRESHOLD,
    FORMATS,
    METHODS,
    compute_value,
    decimal_expansion,
    polynomial_str,
    render_asympt,
    render_poly,
    render_table,
    render_value,
)

B3 = RationalPolynomial([1, Fraction(5, 2), Fraction(3, 2)])

# SHA-256 of render_poly(n, fmt) followed by render_asympt(n, 10**6 + n, 30,
# fmt), for n = 1..25 and fmt in tsv, json, markdown in that order, as the
# Fraction-coefficient polynomials rendered them. Any change to how
# polynomials are stored or computed must leave these bytes alone.
POLY_ASYMPT_SHA256 = "2af56e3dc520365bb6d629a79daeeb2268ad776162d95902322a52c0241c739b"


class TestDecimalExpansion:
    def test_known_values(self):
        assert decimal_expansion(Fraction(15251, 15000), 6) == "1.016733"
        assert decimal_expansion(Fraction(1), 3) == "1.000"
        assert decimal_expansion(Fraction(2, 3), 4) == "0.6667"
        assert decimal_expansion(Fraction(0), 2) == "0.00"

    def test_ties_round_half_even(self):
        assert decimal_expansion(Fraction(1, 8), 2) == "0.12"
        assert decimal_expansion(Fraction(3, 8), 2) == "0.38"
        assert decimal_expansion(Fraction(5, 2), 0) == "2"
        assert decimal_expansion(Fraction(1, 2), 0) == "0"
        assert decimal_expansion(Fraction(3, 2), 0) == "2"
        # ties that truncate to 3 and 4: a parity test other than % 2 fails here
        assert decimal_expansion(Fraction(7, 2), 0) == "4"
        assert decimal_expansion(Fraction(9, 2), 0) == "4"
        assert decimal_expansion(Fraction(-7, 2), 0) == "-4"

    def test_negative_values(self):
        assert decimal_expansion(Fraction(-3, 8), 2) == "-0.38"
        assert decimal_expansion(Fraction(-1), 0) == "-1"

    def test_rejects_negative_digits(self):
        with pytest.raises(ValueError):
            decimal_expansion(Fraction(1, 3), -1)

    @given(
        num=st.integers(min_value=-10 ** 9, max_value=10 ** 9),
        den=st.integers(min_value=1, max_value=10 ** 6),
        digits=st.integers(min_value=0, max_value=8),
    )
    @example(num=0, den=1, digits=7)  # str(Decimal) gives "0E-7" here
    @settings(max_examples=150)
    def test_matches_decimal_module(self, num, den, digits):
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            quantum = decimal.Decimal(1).scaleb(-digits)
            expected = (decimal.Decimal(num) / decimal.Decimal(den)).quantize(
                quantum, rounding=decimal.ROUND_HALF_EVEN
            )
        assert decimal_expansion(Fraction(num, den), digits) == format(expected, "f")


class TestPolynomialStr:
    def test_forms(self):
        assert polynomial_str(B3) == "(3/2)m^2 + (5/2)m + 1"
        assert polynomial_str(RationalPolynomial([1, 1])) == "m + 1"
        assert polynomial_str(RationalPolynomial([1, 3])) == "3m + 1"
        assert polynomial_str(RationalPolynomial()) == "0"
        assert polynomial_str(RationalPolynomial.constant(1)) == "1"
        assert polynomial_str(RationalPolynomial([0, -1])) == "-m"
        assert (
            polynomial_str(RationalPolynomial([0, Fraction(-1, 2), Fraction(3, 2)]))
            == "(3/2)m^2 - (1/2)m"
        )
        assert polynomial_str(RationalPolynomial([5]), var="x") == "5"
        assert polynomial_str(RationalPolynomial([0, 0, 2]), var="x") == "2x^2"


class TestComputeValue:
    def test_explicit_methods_agree(self):
        for method in ("egf", "recursion", "poly"):
            value, resolved = compute_value(6, 4, method)
            assert value == 44590
            assert resolved == method

    def test_auto_threshold(self):
        assert compute_value(3, 1000, "auto")[1] == "recursion"
        assert compute_value(3, 1001, "auto")[1] == "poly"
        assert compute_value(3, 1000, "auto")[0] == compute_value(3, 1000, "poly")[0]

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            compute_value(3, 2, "float64")

    @pytest.mark.parametrize("method", ["egf", "recursion", "poly"])
    def test_rejects_negative_m_on_every_route(self, method):
        # B_3(m) = (3/2)m^2 + (5/2)m + 1 is 0 at m = -1, which is no Bell number.
        with pytest.raises(ValueError):
            compute_value(3, -1, method)

    @given(
        nm=st.one_of(
            st.tuples(st.just(0), st.integers(min_value=0, max_value=3000)),
            st.tuples(st.just(1), st.integers(min_value=0, max_value=3000)),
            st.tuples(st.integers(min_value=0, max_value=20), st.just(0)),
        ),
        method=st.sampled_from(METHODS),
    )
    @settings(max_examples=80)
    def test_edges_are_one_on_every_route(self, nm, method):
        # B(0, m) = B(n, 0) = B(1, m) = 1; the polynomial route meets the
        # constant polynomial 1 and evaluates at m = 0.
        n, m = nm
        if method == "auto":
            expected_route = "poly" if m > AUTO_POLY_THRESHOLD else "recursion"
        else:
            expected_route = method
        assert compute_value(n, m, method) == (1, expected_route)


class TestDocuments:
    def test_table_tsv(self):
        assert render_table(3, 2, "tsv") == "m\tn=1\tn=2\tn=3\n1\t1\t2\t5\n2\t1\t3\t12\n"

    def test_table_json(self):
        doc = json.loads(render_table(3, 2, "json"))
        assert doc == {
            "n_max": 3,
            "m_max": 2,
            "rows": [
                {"m": 1, "values": ["1", "2", "5"]},
                {"m": 2, "values": ["1", "3", "12"]},
            ],
        }

    def test_table_markdown(self):
        lines = render_table(2, 1, "markdown").splitlines()
        assert lines == [
            "| m | n=1 | n=2 |",
            "| --- | --- | --- |",
            "| 1 | 1 | 2 |",
        ]

    def test_table_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            render_table(0, 5, "tsv")
        with pytest.raises(ValueError):
            render_table(5, 2, "yaml")

    def test_value_payloads(self):
        assert render_value(5, 3, "recursion", "tsv") == "1304\n"
        doc = json.loads(render_value(5, 3, "auto", "json"))
        assert doc == {"n": 5, "m": 3, "method": "recursion", "value": "1304"}
        assert render_value(5, 3, "auto", "markdown") == (
            "| n | m | method | value |\n"
            "| --- | --- | --- | --- |\n"
            "| 5 | 3 | recursion | 1304 |\n"
        )

    def test_poly_json_schema(self):
        doc = json.loads(render_poly(3, "json"))
        assert doc == {
            "n": 3,
            "coefficients": ["1", "5/2", "3/2"],
            "leading_theorem": "3/2",
            "match": True,
        }

    def test_poly_degenerate_zero(self):
        doc = json.loads(render_poly(0, "json"))
        assert doc == {
            "n": 0,
            "coefficients": ["1"],
            "leading_theorem": "1",
            "match": True,
        }

    def test_poly_tsv(self):
        assert render_poly(2, "tsv") == (
            "n\t2\nc_0\t1\nc_1\t1\nleading_theorem\t1\nmatch\ttrue\n"
        )

    def test_poly_markdown_shows_polynomial(self):
        assert render_poly(3, "markdown") == (
            "B_3(m) = (3/2)m^2 + (5/2)m + 1\n"
            "\n"
            "| coefficient | value |\n"
            "| --- | --- |\n"
            "| c_0 | 1 |\n"
            "| c_1 | 5/2 |\n"
            "| c_2 | 3/2 |\n"
            "| leading (n!/2^(n-1)) | 3/2 |\n"
            "| match | true |\n"
        )

    def test_asympt_fields(self):
        payload = render_asympt(3, 1000, 6, "tsv")
        assert payload == (
            "n\t3\nm\t1000\nexact\t1502501\nleading\t1500000\n"
            "ratio\t1502501/1500000\nratio_decimal\t1.001667\n"
        )
        doc = json.loads(render_asympt(3, 1000, 6, "json"))
        assert doc == {
            "n": 3,
            "m": 1000,
            "digits": 6,
            "exact": "1502501",
            "leading": "1500000",
            "ratio": "1502501/1500000",
            "ratio_decimal": "1.001667",
        }
        assert render_asympt(3, 1000, 6, "markdown") == (
            "| field | value |\n"
            "| --- | --- |\n"
            "| n | 3 |\n"
            "| m | 1000 |\n"
            "| exact | 1502501 |\n"
            "| leading | 1500000 |\n"
            "| ratio | 1502501/1500000 |\n"
            "| ratio_decimal | 1.001667 |\n"
        )

    def test_poly_and_asympt_bytes_are_pinned(self):
        digest = hashlib.sha256()
        for n in range(1, 26):
            for fmt in FORMATS:
                digest.update(render_poly(n, fmt).encode())
                digest.update(render_asympt(n, 10 ** 6 + n, 30, fmt).encode())
        assert digest.hexdigest() == POLY_ASYMPT_SHA256

    def test_every_payload_is_newline_terminated(self):
        docs = [
            render_table(4, 3, fmt) for fmt in FORMATS
        ] + [
            render_value(4, 2, "auto", fmt) for fmt in FORMATS
        ] + [
            render_poly(4, fmt) for fmt in FORMATS
        ] + [
            render_asympt(4, 9, 3, fmt) for fmt in FORMATS
        ]
        for doc in docs:
            assert doc.endswith("\n")
            assert not doc.endswith("\n\n")
            assert "\r" not in doc
