"""Exact combinatorial building blocks.

Stirling numbers of the second kind, Bernoulli numbers, and the
closed-form polynomials for the power sums 1**r + 2**r + ... + m**r.
Single binomials and factorials are math.comb and math.factorial; the
first rows of Pascal's triangle come in one call from binomial_rows.
Everything is integer or Fraction arithmetic; nothing here is
approximate.

Each quantity depends on one index only and is built once into an
append-only table: Stirling rows (read one number at a time through
stirling2, or a whole row S(n, 0..n) through stirling_row), binomial
rows, Bernoulli numbers and Faulhaber polynomials. clear_caches()
empties them all, and cache_info() counts their entries.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction

from .rational_poly import RationalPolynomial


class _AppendOnlyTable:
    """Entries 0, 1, 2, ... of a sequence, each computed once on demand.

    Entry i is built by `_next(i)` from the entries before it; the table
    grows and is never evicted. Fills are lock-guarded so an instance may
    be shared across threads, and a read of a filled entry takes no lock.
    """

    def __init__(self):
        self._entries: list = []
        self._lock = threading.Lock()

    def _get(self, i: int):
        entries = self._entries
        if i >= len(entries):
            with self._lock:
                while len(entries) <= i:
                    entries.append(self._next(len(entries)))
        return entries[i]


class StirlingTable(_AppendOnlyTable):
    """Memoized triangle of Stirling numbers of the second kind.

    Rows follow S(0,0) = 1 and S(n,k) = k*S(n-1,k) + S(n-1,k-1). Row n
    is stored as the tuple S(n, 0..n) and served whole by `row`.
    """

    def _next(self, i: int) -> tuple[int, ...]:
        if i == 0:
            return (1,)
        prev = self._entries[i - 1]
        row = [0] * (i + 1)
        for j in range(1, i):
            row[j] = j * prev[j] + prev[j - 1]
        row[i] = 1
        return tuple(row)

    def row(self, n: int) -> tuple[int, ...]:
        """S(n, 0), ..., S(n, n), the stored tuple itself."""
        if n < 0:
            raise ValueError("Stirling numbers need non-negative arguments")
        return self._get(n)

    def value(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("Stirling numbers need non-negative arguments")
        return self._get(n)[k] if k <= n else 0


class BinomialTable(_AppendOnlyTable):
    """Pascal's triangle: row n is the tuple C(n, 0..n), built from row n-1."""

    def _next(self, i: int) -> tuple[int, ...]:
        if i == 0:
            return (1,)
        prev = self._entries[i - 1]
        return (1, *map(operator.add, prev, prev[1:]), 1)

    def rows(self, count: int) -> list[tuple[int, ...]]:
        if count < 0:
            raise ValueError("binomial rows need a non-negative count")
        if count:
            self._get(count - 1)
        return self._entries[:count]


class BernoulliSequence(_AppendOnlyTable):
    """Bernoulli numbers b_0, b_1, ... under the b_1 = -1/2 convention.

    Values come from the defining recurrence
    sum(comb(k+1, j) * b_j for j in 0..k) = 0 for k >= 1, which
    forces b_1 = -1/2 and b_k = 0 for odd k >= 3.
    """

    def _next(self, i: int) -> Fraction:
        if i == 0:
            return Fraction(1)
        values = self._entries
        return Fraction(-sum(math.comb(i + 1, j) * values[j] for j in range(i)), i + 1)

    def value(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("Bernoulli numbers need a non-negative index")
        return self._get(k)


class FaulhaberTable(_AppendOnlyTable):
    """The power-sum polynomials P_0, P_1, ..., see faulhaber_polynomial."""

    def _next(self, r: int) -> RationalPolynomial:
        evens = [(j, bernoulli(j)) for j in range(2, r + 1, 2)]  # odd ones vanish
        scale = math.lcm(2, *[b.denominator for _, b in evens])
        nums = [0] * (r + 2)
        nums[r + 1] = scale
        if r >= 1:
            nums[r] = scale // 2 * (r + 1)
        for j, b in evens:
            nums[r + 1 - j] = math.comb(r + 1, j) * b.numerator * (scale // b.denominator)
        return RationalPolynomial.from_numerators(nums, scale * (r + 1))

    def value(self, r: int) -> RationalPolynomial:
        if r < 0:
            raise ValueError("power-sum exponent must be non-negative")
        return self._get(r)


_STIRLING = StirlingTable()
_BINOMIAL = BinomialTable()
_BERNOULLI = BernoulliSequence()
_FAULHABER = FaulhaberTable()


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks."""
    return _STIRLING.value(n, k)


def stirling_row(n: int) -> tuple[int, ...]:
    """The whole row S(n, 0), ..., S(n, n) as a tuple, built once."""
    return _STIRLING.row(n)


def binomial_rows(count: int) -> list[tuple[int, ...]]:
    """Rows C(k, 0..k) for k = 0..count-1 in one list.

    Each row is the stored tuple, built once; the list is a new one.
    """
    return _BINOMIAL.rows(count)


def bernoulli(k: int) -> Fraction:
    """The Bernoulli number b_k (with b_1 = -1/2)."""
    return _BERNOULLI.value(k)


def power_sum_oracle(r: int, m: int) -> int:
    """1**r + 2**r + ... + m**r by direct summation.

    Deliberately naive: this is the independent check for
    faulhaber_polynomial.
    """
    if r < 0 or m < 0:
        raise ValueError("power sums need non-negative arguments")
    return sum(k ** r for k in range(1, m + 1))


def faulhaber_polynomial(r: int) -> RationalPolynomial:
    """Closed form for power sums: P_r(m) = sum(k**r for k in 1..m).

    Bernoulli expansion with the (1/2) m**r term written out explicitly
    (it is the b_1 term under the b_1 = +1/2 convention):

        P_r(m) = m**(r+1)/(r+1) + m**r/2
                 + sum(comb(r+1, j) * b_j * m**(r+1-j) / (r+1)
                       for even j in 2..r)

    Degree is exactly r+1, the constant term is zero, and the leading
    coefficient is 1/(r+1). The coefficients are built as integers over
    (r+1) times the lcm of 2 and the Bernoulli denominators, once per r:
    the polynomials are memoized, and each call returns the stored one.
    """
    return _FAULHABER.value(r)


def _reset_tables() -> None:
    """Drop memoized state. Test hook."""
    global _STIRLING, _BINOMIAL, _BERNOULLI, _FAULHABER
    _STIRLING = StirlingTable()
    _BINOMIAL = BinomialTable()
    _BERNOULLI = BernoulliSequence()
    _FAULHABER = FaulhaberTable()


def _table_sizes() -> dict[str, int]:
    return {
        "stirling_rows": len(_STIRLING._entries),
        "binomial_rows": len(_BINOMIAL._entries),
        "bernoulli_numbers": len(_BERNOULLI._entries),
        "faulhaber_polynomials": len(_FAULHABER._entries),
    }
