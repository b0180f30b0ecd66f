"""Iterated-exponential Bell numbers by two independent routes.

B(n, m) is n! times the x**n coefficient of the m-th iterate of the
exponential map on formal power series, starting from exp(x) and
applying E -> exp(E - 1). egf_iterate runs each step as an integer
convolution of the scaled coefficients j! * a_j with binomial weights.
A step reads its binomial rows from their table in one call and builds
each output coefficient as one Fraction; the plain rational step in
`oracles` checks it. The same numbers satisfy the Stirling recursion

    B(n, m) = sum(B(k, m-1) * S(n, k) for k in 1..n),    B(n, 0) = 1,

which serves as the reference implementation. The two routes share no
table: the EGF reads binomial rows, the recursion Stirling rows. Both
are exact; tests and the selfcheck suite require them to agree entry
for entry.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .combinatorics import _MemoTable, _checked_index, binomial_rows, stirling_row
from .records import Record


class ConsistencyError(ArithmeticError):
    """Two routes or a held-out check disagreed; a bad index raises TypeError or ValueError."""


class TruncatedEGF(Record):
    """Degree-N truncation of an exponential generating function.

    coeffs[j] is the plain x**j coefficient a_j, always a Fraction: an
    entry given as anything else is converted. For every iterate of the
    exponential map, a_0 = 1 and j! * a_j is the integer B(j, m).
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction]):
        # From a list, not a generator: a tuple built from a generator is
        # resized, and every EGF step would leave one in CPython's
        # per-size tuple free lists until they hold thousands. Fractions
        # are immutable, so an entry that is one is stored as it is.
        coeffs = tuple([c if isinstance(c, Fraction) else Fraction(c) for c in coeffs])
        if not coeffs:
            raise ValueError("a truncated series needs at least its constant term")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def exponential(cls, order: int) -> TruncatedEGF:
        """The degree-`order` truncation of exp(x): a_j = 1/j!."""
        order = _checked_index(order, "truncation order must be non-negative")
        return cls([Fraction(1, math.factorial(j)) for j in range(order + 1)])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def integer_coefficient(self, n: int) -> int:
        """n! * a_n for an int n in 0..order; ConsistencyError if it is not an integer."""
        refusal = f"coefficient {n} is outside the truncation order 0..{self.order}"
        if _checked_index(n, refusal) > self.order:
            raise ValueError(refusal)
        value = math.factorial(n) * self.coeffs[n]
        if value.denominator != 1:
            raise ConsistencyError(f"{n}! * a_{n} = {value} is not an integer")
        return value.numerator


def egf_iterate(series: TruncatedEGF) -> TruncatedEGF:
    """One step E -> exp(E - 1) of the exponential map, truncated.

    With f = E - 1 (zero constant term), g = exp(f) satisfies g' = f'g.
    In the scaled coefficients F_i = i! * f_i and G_j = j! * g_j this is
    the integer recurrence G_0 = 1 and

        G_j = sum(C(j-1, i-1) * F_i * G_{j-i}, i = 1..j),

    so the inner sums run in integers. The binomial rows C(0..N-1) are
    read from their table once per step, and each output a_j = G_j / j!
    is built as one Fraction. Every F_i must be an integer: a
    coefficient with non-integral i! * a_i raises ConsistencyError.
    Truncation commutes with the composition, so a degree-N input yields
    the exact degree-N prefix of the next iterate.
    """
    coeffs = series.coeffs
    if coeffs[0] != 1:
        raise ValueError("not an exponential-map iterate: constant term != 1")
    f = []  # F_1, ..., F_j; F_0 is never read, as subtracting 1 clears it
    g = [1]
    out = [coeffs[0]]  # a_0 = 1
    factorial = 1
    for j, weights in enumerate(binomial_rows(len(coeffs) - 1), 1):
        factorial *= j
        a = coeffs[j]
        scale, rest = divmod(factorial, a.denominator)
        if rest:
            raise ConsistencyError(f"{j}! * a_{j} = {factorial * a} is not an integer")
        f.append(scale * a.numerator)
        # C(j-1, i-1) * F_i * G_{j-i} for i = 1..j; reversed(g) is G_{j-1}, ..., G_0
        total = sum(map(operator.mul, weights, map(operator.mul, f, reversed(g))))
        g.append(total)
        out.append(Fraction(total, factorial))
    return TruncatedEGF(out)


def bell_via_egf(n: int, m: int) -> int:
    """B(n, m) by m applications of the exponential map to exp(x).

    Cost grows linearly in m; the recursion route is the better choice
    for large m. Refuses n, then m, as bell_via_recursion does.
    """
    n, m = _BELL.check(n), _BELL.check(m)
    series = TruncatedEGF.exponential(n)
    for _ in range(m):
        series = egf_iterate(series)
    return series.integer_coefficient(n)


class BellTable(_MemoTable):
    """Memoized grid of B(n, m), filled row by row in m.

    A dict keyed by (n, m) on the memo-table base, which brings the
    fill lock, `len` and `clear`. The m = 0 row and n = 0 column are
    identically 1 and never stored. A miss at (n, m) fills the rectangle
    [1..n] x [1..m] from m = 0, so a caller that reads many cells asks
    for the largest first and fills once. The base's `check` refuses a
    bad index before the grid is read.
    """

    _empty = dict
    _refusal = "Bell numbers need non-negative indices"

    def value(self, n: int, m: int) -> int:
        n, m = self.check(n), self.check(m)
        if n == 0 or m == 0:
            return 1
        key = (n, m)
        entries = self._entries
        if key not in entries:
            with self._lock:
                self._fill(entries, n, m)
        return entries[key]

    @staticmethod
    def _fill(entries: dict[tuple[int, int], int], n: int, m: int) -> None:
        """Store every missing B(nn, mm) with nn <= n and mm <= m.

        The fill runs up from the all-ones row m = 0, carried as the list
        B(0..n, mm). It reads a stored cell as it is, and the Stirling row
        S(nn, 0..nn) only for a missing cell. S(nn, 0) = 0 weights
        B(0, mm) = 1, so a row lines up with the list as is.
        """
        previous = [1] * (n + 1)
        for mm in range(1, m + 1):
            row = [1]
            for nn in range(1, n + 1):
                total = entries.get((nn, mm))
                if total is None:
                    total = entries[(nn, mm)] = sum(map(operator.mul, stirling_row(nn), previous))
                row.append(total)
            previous = row


_BELL = BellTable()


def bell_via_recursion(n: int, m: int) -> int:
    """B(n, m) via the Stirling recursion, memoized."""
    return _BELL.value(n, m)

