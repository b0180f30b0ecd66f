"""Polynomial representation of B(n, m) as a function of m.

For fixed n >= 1, B(n, m) agrees for every natural m with a polynomial
of degree n-1 with rational coefficients, constant term 1 and leading
coefficient n!/2**(n-1). Two independent constructions are provided:

* interpolate_bell_polynomial fits exact samples by their integer
  Newton forward differences and verifies a held-out sample, and
  stores each fit once that check passes;
* construct_bell_polynomial assembles the polynomial from the
  first-difference identity

      B(n, m+1) - B(n, m) = D(m) = sum(S(n, k) * B(k, m) for k in 1..n-1)

  by telescoping the differences into power sums. D is the
  Stirling-weighted sum of the lower levels as they are, so no level
  is ever shifted.

The two must agree coefficient for coefficient; any mismatch raises
ConsistencyError. That error means only that two routes or a held-out
check disagreed: every function here first refuses a non-integer index
with TypeError, and one below its least value with ValueError.
bell_via_polynomial evaluates the constructed polynomial at m, a value
route whose cost does not grow with m.

Only the interpolation route is memoized, in an append-only table of
the fits B_1, B_2, ... in order of n, emptied by clear_caches(); B_0,
the constant 1, is answered as it is and never stored. The
telescoping build, _telescoped_levels, reads Stirling rows and power
sums only; construct_bell_polynomial reads the fits to check each level.
As with the recursion grid, a fault injected into the samples after a
fit is stored goes unseen until clear_caches().
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .bell_numbers import _BELL, ConsistencyError, bell_via_recursion
from .combinatorics import _AppendOnlyTable, _checked_index, faulhaber_polynomial, stirling_row
from .rational_poly import RationalPolynomial
from .records import Record

# B(0, m) = B(1, m) = 1, and each telescoped level starts from 1.
_ONE = RationalPolynomial.constant(1)


class BellPolynomial(Record):
    """For fixed n, the polynomial p with p(m) = B(n, m) for natural m.

    Degree n-1 with constant term 1 for n >= 1; the degenerate n = 0 is
    the constant polynomial 1 (an extension, since B(0, m) = 1).
    """

    __slots__ = _fields = ("n", "poly")

    def __init__(self, n: int, poly: RationalPolynomial):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "poly", poly)


def interpolate_bell_polynomial(n: int) -> BellPolynomial:
    """The unique degree-(n-1) polynomial through B(n, 0), ..., B(n, n-1).

    B_0 is the constant 1 and is never fitted. The fits B_1, B_2, ...
    are stored in order of n, each once its held-out check passes, and
    later calls return the stored BellPolynomial. So a cold call fits
    every level below n too: two to three times the work of B_n alone
    at n = 64. A fault injected into the samples after a fit is stored
    stays unseen until clear_caches(); a fit that fails its check
    stores nothing, and the fits below it stay.
    """
    n = _FITS.check(n)
    return _FITS[n - 1] if n else _B0


def _fit_bell_polynomial(fits: list[BellPolynomial]) -> BellPolynomial:
    """Fit B_n, n = len(fits) + 1, through m = 0..n-1 and check it at m = n.

    B_n is integer-valued, so by Polya it is an integer combination
    sum(a_k * C(m, k) for k in 0..n-1) of binomials, and the a_k are the
    forward differences of the samples at m = 0. Over the one
    denominator (n-1)!, with w_k = a_k * (n-1)!/k!, the Newton form is
    nested as

        w_0 + m*(w_1 + (m-1)*(w_2 + ... + (m-n+2)*w_{n-1}))

    and expanded innermost term first, one multiplication by (m - k)
    per step, all in integers in one list. The held-out sample at m = n
    must land on the fitted polynomial; a mismatch would mean the
    polynomial form does not hold (or the arithmetic is broken) and
    raises ConsistencyError. It is read first: its one fill of the
    recursion grid stores every sample below it.
    """
    n = len(fits) + 1
    expected = bell_via_recursion(n, n)
    c = [bell_via_recursion(n, mm) for mm in range(n)]
    for k in range(1, n):  # c[k] becomes the k-th forward difference a_k
        for i in range(n - 1, k - 1, -1):
            c[i] -= c[i - 1]
    ratio = 1
    for k in range(n - 1, -1, -1):  # c[k] becomes w_k = a_k * (n-1)!/k!
        c[k] *= ratio
        ratio *= k
    # c[k+1:] holds the expanded inner part, lowest power first; times
    # (m - k) plus w_k gives c[k:].
    for k in range(n - 2, -1, -1):
        for i in range(k, n - 1):
            c[i] -= k * c[i + 1]
    poly = RationalPolynomial.from_numerators(c, math.factorial(n - 1))
    held_out = poly.evaluate(n)
    if held_out != expected:
        raise ConsistencyError(
            f"interpolation for n={n} gives {held_out} at m={n}, "
            f"recursion gives {expected}"
        )
    return BellPolynomial(n, poly)


_B0 = BellPolynomial(0, _ONE)  # B_0, the constant 1
_FITS = _AppendOnlyTable(_fit_bell_polynomial, "n must be non-negative")  # entry i is B_(i+1)


def _forward_difference(n: int, lower: Sequence[BellPolynomial]) -> RationalPolynomial:
    """D(m) = B(n, m+1) - B(n, m) = sum(S(n, k) * B(k, m) for k in 1..n-1).

    `lower` holds the Bell polynomials for 1..n-1 in order. D has
    degree n-2 and a positive leading coefficient; anything else raises
    ConsistencyError.
    """
    weights = stirling_row(n)
    total = RationalPolynomial.linear_combination(
        [(weights[k], lower[k - 1].poly) for k in range(1, n)]
    )
    if total.degree != n - 2 or total.numerators[-1] <= 0:
        raise ConsistencyError(
            f"difference polynomial for n={n} has degree {total.degree} "
            f"and leading coefficient {total.leading_coefficient()}"
        )
    return total


def difference_polynomial(n: int, lower: Sequence[BellPolynomial]) -> RationalPolynomial:
    """The polynomial d with d(m) = B(n, m) - B(n, m-1), for n >= 2.

    By the Stirling recursion d(m) = D(m-1), where D is the forward
    difference sum(S(n, k) * B(k, m) for k in 1..n-1) of the unshifted
    lower levels, so d is D shifted once by -1. `lower` must hold the
    Bell polynomials for 1..n-1 in order. d has degree n-2 and a
    positive leading coefficient; anything else raises
    ConsistencyError.
    """
    n = _checked_index(n, "difference polynomials are defined for n >= 2", 2)
    if len(lower) < n - 1 or any(lower[k - 1].n != k for k in range(1, n)):
        raise ValueError("lower must hold the Bell polynomials for 1..n-1 in order")
    return _forward_difference(n, lower).shift(-1)


def _telescoped_levels(n: int) -> Iterator[BellPolynomial]:
    """B_1, ..., B_n from differences and power sums, one level at a time.

    Bottom-up over j = 1..n. With D(m) = B(j, m+1) - B(j, m), the
    Stirling-weighted sum of the unshifted lower levels, and B(j, 0) = 1,

        B(j, m) = 1 + sum(D(i) for i in 0..m-1)
                = 1 + D(0) + sum(D_r * P_r(m) for r in 0..j-2) - D(m),

    where D_r are D's coefficients and P_r(m) = sum(k**r for k in 1..m)
    is the power-sum polynomial. The sum runs in integers: D's integer
    numerators weight the P_r over D's one denominator. Each P_r is
    built once, no level is shifted and no fit is read.
    """
    levels: list[BellPolynomial] = []
    power_sums: list[RationalPolynomial] = []  # P_0, ..., P_{j-2}
    for j in range(1, n + 1):
        if j == 1:
            poly = _ONE  # B(1, m) = 1
        else:
            power_sums.append(faulhaber_polynomial(j - 2))
            diff = _forward_difference(j, levels)
            den, nums = diff.denominator, diff.numerators  # D_r = nums[r] / den
            poly = RationalPolynomial.linear_combination(
                [(den + nums[0], _ONE), *zip(nums, power_sums), (-den, diff)], den
            )
        levels.append(BellPolynomial(j, poly))
        yield levels[-1]


def construct_bell_polynomial(n: int) -> BellPolynomial:
    """B_n from _telescoped_levels, each level checked against its interpolation as it comes."""
    level = _B0
    for level in _telescoped_levels(_FITS.check(n)):  # refused as the fits refuse it
        reference = interpolate_bell_polynomial(level.n).poly
        if level.poly != reference:
            raise ConsistencyError(
                f"telescoping construction for n={level.n} disagrees with "
                f"interpolation: {level.poly!r} vs {reference!r}"
            )
    return level


def bell_via_polynomial(n: int, m: int) -> int:
    """B(n, m) by evaluating the telescoped Bell polynomial at m.

    Cost grows with n but not with m. Refuses n, then m (a rational m too)
    as bell_via_recursion does; a non-integer value raises ConsistencyError.
    """
    n, m = _BELL.check(n), _BELL.check(m)
    value = construct_bell_polynomial(n).poly.evaluate(m)
    if value.denominator != 1:
        raise ConsistencyError(f"B({n}, {m}) evaluated to non-integer {value}")
    return value.numerator


def leading_coefficient(n: int) -> Fraction:
    """Top coefficient n!/2**(n-1) of the Bell polynomial, in closed form."""
    n = _checked_index(n, "leading coefficients start at n = 1", 1)
    return Fraction(math.factorial(n), 2 ** (n - 1))


def verify_theorem(n: int) -> Fraction:
    """Confirm the leading-coefficient law for one n and return the value.

    The top coefficient must come out the same from three separate
    computations: read off the interpolated polynomial; n!/2**(n-1)
    from leading_coefficient; and the top Newton entry telescoped from
    the Stirling triangle, prod(S(j, j-1) for j in 2..n) / (n-1)!, whose
    factors S(j, j-1)/(j-1) = j/2 are the halving recurrence's steps.
    Raises ConsistencyError if they do not all agree.

    The law in one line, two ways. In the Newton basis
    B_j(m) = sum(a_k * C(m, k)), level j's top entry is level j-1's
    times S(j, j-1) = C(j, 2), so B_n's is n!(n-1)!/2**(n-1), and its
    m**(n-1) coefficient is that over (n-1)!. By the iterative logarithm
    l = x**2/2 + ... of e**x - 1, with D = l(x) d/dx,
    B_n(m) = sum(m**k/k! * n! [x**n] D**k e**x), and D**k 1 = 0 while
    D**k x = (k!/2**k) x**(k+1) + ..., so the top is n!/(n-1)! * (n-1)!/2**(n-1).
    """
    n = _checked_index(n, "the leading-coefficient law starts at n = 1", 1)
    fitted = interpolate_bell_polynomial(n).poly.leading_coefficient()
    closed = leading_coefficient(n)
    halved = Fraction(
        math.prod([stirling_row(j)[j - 1] for j in range(2, n + 1)]), math.factorial(n - 1)
    )
    if not (fitted == closed == halved):
        raise ConsistencyError(
            f"leading coefficient for n={n}: interpolation gives {fitted}, "
            f"n!/2^(n-1) gives {closed}, halving recurrence gives {halved}"
        )
    return closed


class AsymptoticReport(Record):
    """B(n, m) against its leading term (n!/2**(n-1)) * m**(n-1)."""

    __slots__ = _fields = ("exact", "leading", "ratio")

    def __init__(self, exact: int, leading: Fraction, ratio: Fraction):
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "leading", leading)
        object.__setattr__(self, "ratio", ratio)


def asymptotic_report(n: int, m: int) -> AsymptoticReport:
    """Compare the exact value with the leading term; ratio -> 1 as m grows. Checks n, then m."""
    refusal = "asymptotic reports need n >= 1 and m >= 1"
    n, m = _checked_index(n, refusal, 1), _checked_index(m, refusal, 1)
    exact = bell_via_polynomial(n, m)
    leading = leading_coefficient(n) * m ** (n - 1)
    return AsymptoticReport(exact=exact, leading=leading, ratio=Fraction(exact) / leading)

