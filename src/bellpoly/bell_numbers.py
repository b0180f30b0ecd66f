"""Iterated-exponential Bell numbers by two independent routes.

B(n, m) is n! times the x**n coefficient of the m-th iterate of the
exponential map on formal power series, starting from exp(x) and
applying E -> exp(E - 1). egf_iterate runs each step as an integer
convolution of the scaled coefficients j! * a_j with binomial weights;
the plain rational step in `oracles` checks it. The same numbers satisfy
the Stirling recursion

    B(n, m) = sum(B(k, m-1) * S(n, k) for k in 1..n),    B(n, 0) = 1,

which serves as the reference implementation. The two routes share no
table: the EGF reads binomial rows, the recursion Stirling rows. Both
are exact; tests and the selfcheck suite require them to agree entry
for entry.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction

from .combinatorics import binomial_row, stirling_row
from .records import Record


class ConsistencyError(ArithmeticError):
    """An exact cross-check that must hold mathematically failed."""


class TruncatedEGF(Record):
    """Degree-N truncation of an exponential generating function.

    coeffs[j] is the plain x**j coefficient a_j. For every iterate of
    the exponential map, a_0 = 1 and j! * a_j is the integer B(j, m).
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        # From a list, not a generator: a tuple built from a generator is
        # resized, and every EGF step would leave one in CPython's
        # per-size tuple free lists until they hold thousands.
        coeffs = tuple([Fraction(c) for c in coeffs])
        if not coeffs:
            raise ValueError("a truncated series needs at least its constant term")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def exponential(cls, order: int) -> TruncatedEGF:
        """The degree-`order` truncation of exp(x): a_j = 1/j!."""
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        return cls(tuple([Fraction(1, math.factorial(j)) for j in range(order + 1)]))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def integer_coefficient(self, n: int) -> int:
        """n! * a_n as an exact integer; raises if it is not integral."""
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

    so the inner sums run in integers, with each binomial row built
    once. Every F_i must be an integer: a coefficient with non-integral
    i! * a_i raises ConsistencyError. The step returns a_j = G_j / j!.
    Truncation commutes with the composition, so a degree-N input yields
    the exact degree-N prefix of the next iterate.
    """
    coeffs = series.coeffs
    if coeffs[0] != 1:
        raise ValueError("not an exponential-map iterate: constant term != 1")
    f = [0]  # F_0 is never read: subtracting 1 clears it
    g = [1]
    out = [coeffs[0]]  # a_0 = 1
    factorial = 1
    for j in range(1, len(coeffs)):
        factorial *= j
        a = coeffs[j]
        scale, rest = divmod(factorial, a.denominator)
        if rest:
            raise ConsistencyError(f"{j}! * a_{j} = {factorial * a} is not an integer")
        f.append(scale * a.numerator)
        # C(j-1, i-1) * F_i * G_{j-i} for i = 1..j; reversed(g) is G_{j-1}, ..., G_0
        total = sum(map(operator.mul, binomial_row(j - 1), map(operator.mul, f[1:], reversed(g))))
        g.append(total)
        out.append(Fraction(total, factorial))
    return TruncatedEGF(tuple(out))


def bell_via_egf(n: int, m: int) -> int:
    """B(n, m) by m applications of the exponential map to exp(x).

    Cost grows linearly in m; the recursion route is the better choice
    for large m.
    """
    if n < 0 or m < 0:
        raise ValueError("Bell numbers need non-negative indices")
    series = TruncatedEGF.exponential(n)
    for _ in range(m):
        series = egf_iterate(series)
    return series.integer_coefficient(n)


class BellTable:
    """Memoized grid of B(n, m), filled row by row in m.

    The m = 0 row and n = 0 column are identically 1 and never stored.
    Fills are lock-guarded so an instance may be shared across threads.
    """

    def __init__(self):
        self._entries: dict[tuple[int, int], int] = {}
        self._lock = threading.Lock()

    def value(self, n: int, m: int) -> int:
        if n < 0 or m < 0:
            raise ValueError("Bell numbers need non-negative indices")
        if n == 0 or m == 0:
            return 1
        key = (n, m)
        if key not in self._entries:
            with self._lock:
                self._fill(n, m)
        return self._entries[key]

    def _fill(self, n: int, m: int) -> None:
        """Store every missing B(nn, mm) with nn <= n and mm <= m.

        Every fill stores a whole rectangle [1..n] x [1..m], so the stored
        cells form a staircase: if (n, mm) is stored, so is every
        (nn, mm') with nn <= n and mm' <= mm. The fill starts from the
        highest such m-row, carried as the list B(0..n, mm) (the all-ones
        row m = 0 if there is none). Levels stored at m are stored in
        every row of the fill; each level above them has a missing cell
        and reads its Stirling row S(nn, 0..nn) once per fill.
        S(nn, 0) = 0 weights B(0, mm) = 1, so a row lines up with the
        list as is.
        """
        entries = self._entries
        start = m - 1
        while start > 0 and (n, start) not in entries:
            start -= 1
        if start:
            previous = [1, *[entries[(nn, start)] for nn in range(1, n + 1)]]
        else:
            previous = [1] * (n + 1)
        low = 1
        while low <= n and (low, m) in entries:
            low += 1
        weights = [()] * low + [stirling_row(nn) for nn in range(low, n + 1)]
        for mm in range(start + 1, m + 1):
            row = [1]
            for nn in range(1, n + 1):
                total = entries.get((nn, mm))
                if total is None:
                    total = sum(map(operator.mul, weights[nn], previous))
                    entries[(nn, mm)] = total
                row.append(total)
            previous = row


_BELL = BellTable()


def bell_via_recursion(n: int, m: int) -> int:
    """B(n, m) via the Stirling recursion, memoized."""
    return _BELL.value(n, m)


def _reset_tables() -> None:
    """Drop memoized state. Test hook."""
    global _BELL
    _BELL = BellTable()


def _table_sizes() -> dict[str, int]:
    return {"recursion_cells": len(_BELL._entries)}
