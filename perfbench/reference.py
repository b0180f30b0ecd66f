"""Reference answers for the benchmark, computed without the library.

Values come from the exponential formula in integer form. With
E_m(x) = sum(B(j, m) x^j / j!) and E_{m+1} = exp(E_m - 1), the relation
g' = f'g gives

    B(j, m+1) = sum(C(j-1, i-1) * B(i, m) * B(j-i, m+1) for i in 1..j).

For fixed n >= 1, B(n, m) is a polynomial in m of degree n - 1 that
takes integer values, so it is an integer combination of the binomials
C(m, k); the weights are the forward differences of B(n, 0..n-1). The
library uses neither the integer recurrence nor the binomial basis, so
these answers reach the library's results by a different route.

The formatters rebuild the exact bytes `bell` prints from these values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def bell_rows(n_max: int, m_max: int) -> list[list[int]]:
    """rows[m][j] = B(j, m) for 0 <= j <= n_max and 0 <= m <= m_max."""
    row = [1] * (n_max + 1)  # E_0 = exp(x)
    rows = [row]
    for _ in range(m_max):
        nxt = [1]
        for j in range(1, n_max + 1):
            nxt.append(
                sum(comb(j - 1, i - 1) * row[i] * nxt[j - i] for i in range(1, j + 1))
            )
        rows.append(nxt)
        row = nxt
    return rows


@lru_cache(maxsize=None)
def binomial_weights(n: int) -> tuple[int, ...]:
    """a_k with B(n, m) = sum(a_k * C(m, k)) for every natural m."""
    if n == 0:
        return (1,)
    column = [row[n] for row in bell_rows(n, n - 1)]
    weights = []
    while column:
        weights.append(column[0])
        column = [b - a for a, b in zip(column, column[1:])]
    return tuple(weights)


def bell(n: int, m: int) -> int:
    return sum(a * comb(m, k) for k, a in enumerate(binomial_weights(n)))


def leading(n: int) -> Fraction:
    """n!/2^(n-1), the top coefficient of B_n(m)."""
    return Fraction(factorial(n), 2 ** (n - 1))


@lru_cache(maxsize=None)
def monomial_coefficients(n: int) -> tuple[Fraction, ...]:
    """c_0..c_{n-1} of B_n(m) in powers of m, from the binomial weights."""
    out = [Fraction(0)] * max(n, 1)
    basis = [Fraction(1)]  # C(m, k) in powers of m, starting at k = 0
    for k, a in enumerate(binomial_weights(n)):
        for j, c in enumerate(basis):
            out[j] += a * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for j, c in enumerate(basis):  # C(m, k+1) = C(m, k) * (m - k) / (k + 1)
            nxt[j + 1] += c / (k + 1)
            nxt[j] -= c * k / (k + 1)
        basis = nxt
    return tuple(out)


def fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def decimal_text(x: Fraction, digits: int) -> str:
    """x to `digits` places, the last rounded half to even by Fraction.__round__."""
    scaled = round(x * 10 ** digits)
    text = str(abs(scaled)).rjust(digits + 1, "0")
    sign = "-" if scaled < 0 else ""
    return sign + (text if digits == 0 else f"{text[:-digits]}.{text[-digits:]}")


def polynomial_text(coeffs: tuple[Fraction, ...]) -> str:
    pieces = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if c == 0:
            continue
        mag = abs(c)
        var = "" if j == 0 else ("m" if j == 1 else f"m^{j}")
        if not var:
            body = fraction_text(mag)
        elif mag == 1:
            body = var
        elif mag.denominator == 1:
            body = f"{mag.numerator}{var}"
        else:
            body = f"({fraction_text(mag)}){var}"
        if pieces:
            pieces.append(("+ " if c > 0 else "- ") + body)
        else:
            pieces.append(body if c > 0 else "-" + body)
    return " ".join(pieces) or "0"


def _markdown(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "| " + " | ".join("---" for _ in header) + " |"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def table_output(n_max: int, m_max: int, fmt: str) -> str:
    rows = bell_rows(n_max, m_max)
    grid = [[str(rows[m][n]) for n in range(1, n_max + 1)] for m in range(1, m_max + 1)]
    header = ["m"] + [f"n={n}" for n in range(1, n_max + 1)]
    if fmt == "tsv":
        return "".join("\t".join(r) + "\n" for r in [header] + [[str(m)] + g for m, g in enumerate(grid, 1)])
    if fmt == "json":
        doc = {"n_max": n_max, "m_max": m_max,
               "rows": [{"m": m, "values": g} for m, g in enumerate(grid, 1)]}
        return json.dumps(doc) + "\n"
    return _markdown(header, [[str(m)] + g for m, g in enumerate(grid, 1)])


def value_output(n: int, m: int, method: str, fmt: str) -> str:
    v = str(bell(n, m))
    if fmt == "tsv":
        return v + "\n"
    if fmt == "json":
        return json.dumps({"n": n, "m": m, "method": method, "value": v}) + "\n"
    return _markdown(["n", "m", "method", "value"], [[str(n), str(m), method, v]])


def poly_output(n: int, fmt: str) -> str:
    coeffs = monomial_coefficients(n)
    texts = [fraction_text(c) for c in coeffs]
    lead = fraction_text(leading(n))
    if fmt == "json":
        return json.dumps({"n": n, "coefficients": texts, "leading_theorem": lead, "match": True}) + "\n"
    if fmt == "tsv":
        return (f"n\t{n}\n" + "".join(f"c_{j}\t{c}\n" for j, c in enumerate(texts))
                + f"leading_theorem\t{lead}\nmatch\ttrue\n")
    rows = [[f"c_{j}", c] for j, c in enumerate(texts)]
    rows += [["leading (n!/2^(n-1))", lead], ["match", "true"]]
    return f"B_{n}(m) = {polynomial_text(coeffs)}\n\n" + _markdown(["coefficient", "value"], rows)


def asympt_output(n: int, m: int, digits: int, fmt: str) -> str:
    exact = bell(n, m)
    lead = leading(n) * m ** (n - 1)
    ratio = Fraction(exact) / lead
    fields = [("exact", str(exact)), ("leading", fraction_text(lead)),
              ("ratio", fraction_text(ratio)), ("ratio_decimal", decimal_text(ratio, digits))]
    if fmt == "json":
        return json.dumps({"n": n, "m": m, "digits": digits, **dict(fields)}) + "\n"
    fields = [("n", str(n)), ("m", str(m))] + fields
    if fmt == "tsv":
        return "".join(f"{k}\t{v}\n" for k, v in fields)
    return _markdown(["field", "value"], [[k, v] for k, v in fields])
