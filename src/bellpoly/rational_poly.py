"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one positive common
denominator, so shifting, evaluating, combining and multiplying all run
in integer arithmetic. A Fraction is made only where a coefficient or a
value leaves the class. Callers that work in integers read
`numerators` and `denominator` and build through `from_numerators`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .records import Record


class RationalPolynomial(Record):
    """Immutable polynomial sum(c[j] * x**j) over the rationals.

    Stored as a tuple of integer numerators a_j over one positive
    denominator d, with c[j] = a_j / d. The form is canonical: trailing
    zeros are stripped, so the highest stored numerator is nonzero, and
    gcd(a_0, ..., a_k, d) = 1. Equal polynomials therefore store equal
    numerators and denominators, so the Record fields (_nums, _den)
    give structural equality and hashing, and copy and pickle rebuild
    through the constructor. A RationalPolynomial compares equal only
    to its own class. The zero polynomial stores no numerators over
    d = 1 and reports degree -1. Coefficients and values are returned
    as Fractions.

    Hot paths build every tuple here from a list, never from a
    generator: a tuple built from a generator is resized after it is
    filled, and freed tuples of each size are kept in CPython's
    per-size free lists, which a long run fills with megabytes.
    """

    __slots__ = _fields = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[int | Fraction] = (), denominator: int = 1):
        """The polynomial sum(coeffs[j] * x**j) / denominator.

        `denominator` must be a positive integer; coefficients may be
        ints or anything Fraction accepts.
        """
        if not isinstance(denominator, int) or denominator <= 0:
            raise ValueError("denominator must be a positive integer")
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        self._store([c.numerator * (den // c.denominator) for c in cs], den * denominator)

    def _store(self, nums: list[int], den: int) -> None:
        """Set the canonical form of sum(nums[j] * x**j) / den (den > 0)."""
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    @classmethod
    def from_numerators(cls, nums: list[int], den: int) -> RationalPolynomial:
        """sum(nums[j] * x**j) / den from integers, with no conversion.

        The integer entry point: `nums` must be a list of ints, which the
        new polynomial takes over, and `den` a positive int.
        """
        if den <= 0:
            raise ValueError("denominator must be a positive integer")
        poly = object.__new__(cls)
        poly._store(nums, den)
        return poly

    @classmethod
    def constant(cls, value: int | Fraction) -> RationalPolynomial:
        return cls((value,))

    @property
    def numerators(self) -> tuple[int, ...]:
        """The integer numerators a_j, over `denominator`, lowest power first."""
        return self._nums

    @property
    def denominator(self) -> int:
        """The one positive denominator d of every coefficient."""
        return self._den

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(a, den) for a in self._nums])

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of x**j; zero beyond the stored degree."""
        if 0 <= j < len(self._nums):
            return Fraction(self._nums[j], self._den)
        return Fraction(0)

    def leading_coefficient(self) -> Fraction:
        return self.coefficient(self.degree)

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def is_zero(self) -> bool:
        return not self._nums

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact value at x = p/q, by Horner's rule in integers.

        Accumulates sum(a_j * p**j * q**(k-j)) for degree k and divides
        by d * q**k once. Any x but an int or a Fraction raises TypeError.
        """
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"evaluate takes an int or a Fraction, not {type(x).__name__}")
        if not self._nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, scale = 0, 1  # scale is q**(k-j) at numerator a_j
        for a in reversed(self._nums):
            acc = acc * p + a * scale
            scale *= q
        return Fraction(acc, self._den * (scale // q))

    def shift(self, delta: int) -> RationalPolynomial:
        """The polynomial r with r(x) = self(x + delta), for an integer delta.

        A Taylor shift by Horner's rule, repeated, on the integer
        numerators; the denominator stays. Any other step raises
        TypeError.
        """
        if not isinstance(delta, int):
            raise TypeError(f"shift takes an integer step, not {type(delta).__name__}")
        b = list(self._nums)
        k = len(b) - 1
        for i in range(k):  # b(x) -> b(x + delta)
            for j in range(k - 1, i - 1, -1):
                b[j] += delta * b[j + 1]
        return self.from_numerators(b, self._den)

    @classmethod
    def linear_combination(
        cls, terms: Iterable[tuple[int | Fraction, RationalPolynomial]], denominator: int = 1
    ) -> RationalPolynomial:
        """sum(c * p for c, p in terms) / denominator, summed into one coefficient list.

        Every product goes over one common denominator, so the sum runs
        in integers; `denominator` must be a positive int.
        """
        scaled = [(c.numerator, c.denominator * p._den, p._nums) for c, p in terms]
        den = math.lcm(*[d for _, d, _ in scaled])
        acc = [0] * max([len(nums) for _, _, nums in scaled], default=0)
        for c, d, nums in scaled:
            factor = c * (den // d)
            for i, a in enumerate(nums):
                acc[i] += factor * a
        return cls.from_numerators(acc, den * denominator)

    def __sub__(self, other: RationalPolynomial) -> RationalPolynomial:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.linear_combination([(1, self), (-1, other)])

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            a, b = self._nums, other._nums
            if not a or not b:
                return RationalPolynomial()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x == 0:
                    continue
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return self.from_numerators(out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            return self.linear_combination([(other, self)])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.linear_combination([(other, self)])
        return NotImplemented

    def __repr__(self) -> str:
        return f"RationalPolynomial({[str(c) for c in self.coefficients]})"
