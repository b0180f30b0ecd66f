"""Exact text rendering for the CLI: tables, values, polynomials, ratios.

Each render_* function returns the output text as a plain str. No
value ever passes through binary floating point; every digit comes
from integer arithmetic. Rendering is byte-stable: the same inputs
produce the same bytes, lines end with a single newline, and JSON
carries big integers and rationals as strings so no consumer truncates
them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction

from .bell_numbers import bell_via_egf, bell_via_recursion
from .combinatorics import _checked_index
from .polynomial import (
    asymptotic_report,
    bell_via_polynomial,
    construct_bell_polynomial,
    leading_coefficient,
)
from .rational_poly import RationalPolynomial

FORMATS = ("tsv", "json", "markdown")
METHODS = ("egf", "recursion", "poly", "auto")

# method=auto switches to the polynomial route past this m
AUTO_POLY_THRESHOLD = 1000


def decimal_expansion(value: Fraction, digits: int) -> str:
    """Decimal string with exactly `digits` places, by exact long division.

    The final digit is rounded half to even; everything before it is
    exact. `digits` must be an int (else TypeError), at least 0.
    """
    digits = _checked_index(digits, "digits must be non-negative")
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    scaled, rem = divmod(abs(num) * 10 ** digits, den)
    if 2 * rem > den or (2 * rem == den and scaled % 2 == 1):
        scaled += 1
    text = str(scaled).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def polynomial_str(p: RationalPolynomial, var: str = "m") -> str:
    """Readable form like "(3/2)m^2 + (5/2)m + 1", highest power first."""
    if p.is_zero():
        return "0"
    pieces = []
    for j in range(p.degree, -1, -1):
        c = p.coefficient(j)
        if c == 0:
            continue
        mag = abs(c)
        if j == 0:
            body = str(mag)
        else:
            var_part = var if j == 1 else f"{var}^{j}"
            if mag == 1:
                body = var_part
            elif mag.denominator == 1:
                body = f"{mag.numerator}{var_part}"
            else:
                body = f"({mag!s}){var_part}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def resolve_method(m: int, method: str) -> str:
    """The route `method` names at this m; auto picks one by m."""
    if method == "auto":
        return "poly" if m > AUTO_POLY_THRESHOLD else "recursion"
    return method


def compute_value(n: int, m: int, method: str = "auto") -> tuple[int, str]:
    """B(n, m) by the requested route; returns (value, resolved method)."""
    method = resolve_method(m, method)
    if method == "egf":
        return bell_via_egf(n, m), method
    if method == "recursion":
        return bell_via_recursion(n, m), method
    if method == "poly":
        return bell_via_polynomial(n, m), method
    raise ValueError(f"unknown method: {method}")


def _document(
    fmt: str,
    doc: dict,
    tsv_rows: list[Sequence[str]],
    header: list[str],
    rows: list[Sequence[str]],
    title: Callable[[], str] | None = None,
) -> str:
    """The one place content becomes json, tsv or markdown text.

    `doc` is the JSON object, `tsv_rows` the tab-separated lines, and
    `header` and `rows` the markdown table. `title` is called only for
    markdown; its line and a blank line go above the table.
    """
    if fmt == "json":
        import json  # only json output needs it; a cold start skips the import

        return json.dumps(doc) + "\n"
    if fmt == "tsv":
        return "".join("\t".join(row) + "\n" for row in tsv_rows)
    if fmt == "markdown":
        lines = [header, ["---"] * len(header), *rows]
        table = "".join("| " + " | ".join(row) + " |\n" for row in lines)
        return table if title is None else f"{title()}\n\n{table}"
    raise ValueError(f"unknown format: {fmt}")


def render_table(n_max: int, m_max: int, fmt: str) -> str:
    """The grid of B(n, m) for 1 <= n <= n_max, 1 <= m <= m_max; checks n_max, then m_max."""
    refusal = "table bounds must be at least 1"
    n_max, m_max = _checked_index(n_max, refusal, 1), _checked_index(m_max, refusal, 1)
    bell_via_recursion(n_max, m_max)  # one fill; every cell below is then a hit
    grid = [
        (m, [str(bell_via_recursion(n, m)) for n in range(1, n_max + 1)])
        for m in range(1, m_max + 1)
    ]
    header = ["m"] + [f"n={n}" for n in range(1, n_max + 1)]
    rows = [[str(m)] + values for m, values in grid]
    doc = {
        "n_max": n_max,
        "m_max": m_max,
        "rows": [{"m": m, "values": values} for m, values in grid],
    }
    return _document(fmt, doc, [header, *rows], header, rows)


def render_value(n: int, m: int, method: str, fmt: str) -> str:
    """A single B(n, m) as a decimal string."""
    value, resolved = compute_value(n, m, method)
    text = str(value)
    return _document(
        fmt,
        {"n": n, "m": m, "method": resolved, "value": text},
        [[text]],
        ["n", "m", "method", "value"],
        [[str(n), str(m), resolved, text]],
    )


def render_poly(n: int, fmt: str) -> str:
    """Coefficients c_0..c_{n-1} of the Bell polynomial, exact.

    Also reports the expected leading value n!/2**(n-1) and whether the
    constructed top coefficient matches it. For the degenerate n = 0
    extension both values are the constant polynomial's coefficient 1.
    """
    bp = construct_bell_polynomial(n)
    count = n if n >= 1 else 1
    coeffs = [str(bp.poly.coefficient(j)) for j in range(count)]
    expected_leading = leading_coefficient(n) if n >= 1 else Fraction(1)
    match = bp.poly.leading_coefficient() == expected_leading
    leading = str(expected_leading)
    match_str = "true" if match else "false"
    named = [(f"c_{j}", c) for j, c in enumerate(coeffs)]
    return _document(
        fmt,
        {"n": n, "coefficients": coeffs, "leading_theorem": leading, "match": match},
        [("n", str(n)), *named, ("leading_theorem", leading), ("match", match_str)],
        ["coefficient", "value"],
        [*named, ("leading (n!/2^(n-1))", leading), ("match", match_str)],
        title=lambda: f"B_{n}(m) = {polynomial_str(bp.poly)}",
    )


def render_asympt(n: int, m: int, digits: int, fmt: str) -> str:
    """Exact value, leading term and their ratio (exact plus decimal)."""
    report = asymptotic_report(n, m)
    fields = [
        ("n", str(n)),
        ("m", str(m)),
        ("exact", str(report.exact)),
        ("leading", str(report.leading)),
        ("ratio", str(report.ratio)),
        ("ratio_decimal", decimal_expansion(report.ratio, digits)),
    ]
    doc = {"n": n, "m": m, "digits": digits, **dict(fields[2:])}
    return _document(fmt, doc, fields, ["field", "value"], fields)
