"""Exact combinatorial building blocks.

Stirling numbers of the second kind, Bernoulli numbers, and the
closed-form polynomials for the power sums 1**r + 2**r + ... + m**r.
Binomials and factorials are math.comb and math.factorial. Everything
is integer or Fraction arithmetic; nothing here is approximate.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .rational_poly import RationalPolynomial


class StirlingTable:
    """Memoized triangle of Stirling numbers of the second kind.

    Rows follow S(0,0) = 1 and S(n,k) = k*S(n-1,k) + S(n-1,k-1); the
    table grows on demand and is never evicted. Fills are lock-guarded
    so an instance may be shared across threads.
    """

    def __init__(self):
        self._rows: list[list[int]] = [[1]]
        self._lock = threading.Lock()

    @property
    def max_n(self) -> int:
        return len(self._rows) - 1

    def value(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("Stirling numbers need non-negative arguments")
        if k > n:
            return 0
        if n > self.max_n:
            with self._lock:
                while len(self._rows) <= n:
                    i = len(self._rows)
                    prev = self._rows[-1]
                    row = [0] * (i + 1)
                    for j in range(1, i + 1):
                        above = prev[j] if j < i else 0
                        row[j] = j * above + prev[j - 1]
                    self._rows.append(row)
        return self._rows[n][k]


class BernoulliSequence:
    """Bernoulli numbers b_0, b_1, ... under the b_1 = -1/2 convention.

    Values come from the defining recurrence
    sum(comb(k+1, j) * b_j for j in 0..k) = 0 for k >= 1, which
    forces b_1 = -1/2 and b_k = 0 for odd k >= 3. Memoized; fills are
    lock-guarded.
    """

    def __init__(self):
        self._values: list[Fraction] = [Fraction(1)]
        self._lock = threading.Lock()

    def value(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("Bernoulli numbers need a non-negative index")
        if k >= len(self._values):
            with self._lock:
                while len(self._values) <= k:
                    i = len(self._values)
                    acc = sum(math.comb(i + 1, j) * self._values[j] for j in range(i))
                    self._values.append(Fraction(-acc, i + 1))
        return self._values[k]


_STIRLING = StirlingTable()
_BERNOULLI = BernoulliSequence()


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks."""
    return _STIRLING.value(n, k)


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
    (r+1) times the lcm of 2 and the Bernoulli denominators.
    """
    if r < 0:
        raise ValueError("power-sum exponent must be non-negative")
    evens = [(j, bernoulli(j)) for j in range(2, r + 1, 2)]  # odd ones vanish
    scale = math.lcm(2, *[b.denominator for _, b in evens])
    nums = [0] * (r + 2)
    nums[r + 1] = scale
    if r >= 1:
        nums[r] = scale // 2 * (r + 1)
    for j, b in evens:
        nums[r + 1 - j] = math.comb(r + 1, j) * b.numerator * (scale // b.denominator)
    return RationalPolynomial.from_numerators(nums, scale * (r + 1))


def _reset_tables() -> None:
    """Drop memoized state. Test hook."""
    global _STIRLING, _BERNOULLI
    _STIRLING = StirlingTable()
    _BERNOULLI = BernoulliSequence()
