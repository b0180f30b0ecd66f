"""Exact combinatorial building blocks.

Stirling numbers of the second kind, the polynomials for the power
sums 1**r + 2**r + ... + m**r, and the Bernoulli numbers read off them.
Single binomials and factorials are math.comb and math.factorial; the
first rows of Pascal's triangle come in one call from binomial_rows.
Everything is integer or Fraction arithmetic; nothing here is
approximate.

Each quantity depends on one index only and is built once into an
append-only table, given the function that builds each entry from the
ones before it: Stirling rows (read one number at a time through
stirling2, or a whole row S(n, 0..n) through stirling_row), binomial
rows, Faulhaber polynomials and Bernoulli numbers. clear_caches()
empties them in place, and cache_info() counts their entries. Every
index is checked before any read or fill by _checked_index, the one
test of what an index is for every public function of the package: one
that is not an integer raises TypeError, one below the least value the
caller allows ValueError, and cache_info() stays as it was.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction

from .rational_poly import RationalPolynomial


def _checked_index(index: int, refusal: str, minimum: int = 0) -> int:
    """`index` as an int: TypeError if it is not one, ValueError(refusal) below `minimum`."""
    index = operator.index(index)
    if index < minimum:
        raise ValueError(refusal)
    return index


class _MemoTable:
    """A memo container with its fill lock, `len`, `clear` and `check`.

    Subclasses fill `_entries`, a new `_empty()`, under `_lock`; a read
    of a stored entry takes no lock. `clear` swaps in an empty container
    under the lock, so a call already running finishes on the old one.
    Subclasses set `_refusal`, the message `check` raises for a negative index.
    """

    _empty = list

    def __init__(self):
        self._entries = self._empty()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries = self._empty()

    def check(self, index: int) -> int:
        return _checked_index(index, self._refusal)


class _AppendOnlyTable(_MemoTable):
    """Entries 0, 1, 2, ... of a sequence, each computed once on demand.

    `build(entries)` returns entry i from the stored entries 0..i-1.
    Every entry is stored, and nothing is evicted.
    """

    def __init__(self, build, refusal: str):
        super().__init__()
        self._build, self._refusal = build, refusal

    def __getitem__(self, index: int):
        """Entry `index`, filling the table up to it."""
        index = self.check(index)
        return self._fill(index + 1)[index]

    def prefix(self, count: int) -> list:
        """A new list of the first `count` stored entries."""
        return self._fill(self.check(count))[:count]

    def _fill(self, count: int) -> list:
        entries = self._entries
        if len(entries) < count:
            with self._lock:
                while len(entries) < count:
                    entries.append(self._build(entries))
        return entries


def _stirling_row(rows: list) -> tuple[int, ...]:
    """Row S(n, 0..n) by S(n, k) = k*S(n-1, k) + S(n-1, k-1), from S(0, 0) = 1."""
    n = len(rows)
    if n == 0:
        return (1,)
    prev = rows[-1]
    row = [0] * (n + 1)
    for k in range(1, n):
        row[k] = k * prev[k] + prev[k - 1]
    row[n] = 1
    return tuple(row)


def _binomial_row(rows: list) -> tuple[int, ...]:
    """Row C(n, 0..n) of Pascal's triangle, from row n-1."""
    if not rows:
        return (1,)
    prev = rows[-1]
    return (1, *map(operator.add, prev, prev[1:]), 1)


def _faulhaber(polys: list) -> RationalPolynomial:
    """P_r for r = len(polys), see faulhaber_polynomial."""
    r = len(polys)
    row = [math.comb(r + 1, j) for j in range(r + 2)]
    telescoped = RationalPolynomial.from_numerators([0, *row[1:]], 1)  # (m+1)**(r+1) - 1
    lower = zip([-c for c in row], polys)
    return RationalPolynomial.linear_combination([(1, telescoped), *lower], r + 1)


def _bernoulli_number(values: list) -> Fraction:
    """b_k = [m**1] P_k, but b_1 = -1/2; _faulhaber never reads this table back."""
    k = len(values)
    return Fraction(-1, 2) if k == 1 else faulhaber_polynomial(k).coefficient(1)


_STIRLING = _AppendOnlyTable(_stirling_row, "Stirling numbers need non-negative arguments")
_BINOMIAL = _AppendOnlyTable(_binomial_row, "binomial rows need a non-negative count")
_BERNOULLI = _AppendOnlyTable(_bernoulli_number, "Bernoulli numbers need a non-negative index")
_FAULHABER = _AppendOnlyTable(_faulhaber, "power-sum exponent must be non-negative")


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks; checks k, then n."""
    k = _STIRLING.check(k)
    row = _STIRLING[n]
    return row[k] if k < len(row) else 0


def stirling_row(n: int) -> tuple[int, ...]:
    """The whole row S(n, 0), ..., S(n, n) as a tuple, built once; checks n first."""
    return _STIRLING[n]


def binomial_rows(count: int) -> list[tuple[int, ...]]:
    """Rows C(k, 0..k) for k < count (checked first): stored tuples, a new list."""
    return _BINOMIAL.prefix(count)


def bernoulli(k: int) -> Fraction:
    """Bernoulli number b_k (b_1 = -1/2), read off the power sums; checks k first."""
    return _BERNOULLI[k]


def power_sum_oracle(r: int, m: int) -> int:
    """1**r + 2**r + ... + m**r by direct summation.

    Deliberately naive: this is the independent check for
    faulhaber_polynomial. Checks r, then m.
    """
    refusal = "power sums need non-negative arguments"
    r, m = _checked_index(r, refusal), _checked_index(m, refusal)
    return sum(k ** r for k in range(1, m + 1))


def faulhaber_polynomial(r: int) -> RationalPolynomial:
    """The power-sum polynomial P_r(m) = sum(k**r for k in 1..m).

    Built from P_0, ..., P_(r-1) by Pascal's recurrence, which sums
    (k+1)**(r+1) - k**(r+1) over k = 1..m in two ways:

        (r+1) * P_r(m) = (m+1)**(r+1) - 1
                         - sum(comb(r+1, j) * P_j(m) for j in 0..r-1)

    It needs binomials only, no Bernoulli number. The polynomials are
    memoized, and each call returns the stored one. Checks r first.
    """
    return _FAULHABER[r]

