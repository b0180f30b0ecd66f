"""The paper's map e^x - 1 as one of many: the law for every iterated map.

For f(x) = x + f_2*x**2 + f_3*x**3 + ..., with F_i = i! * f_i, the
Jabotinsky triangle J_f(n, k) = n! [x**n] f(x)**k / k! satisfies

    J_f(n, k) = sum(C(n-1, i-1) * F_i * J_f(n-i, k-1) for i >= 1),

from the block holding the last of n labelled points. The iterated
values B^f(n, m) = n! [x**n] exp(f^m(x)) then satisfy

    B^f(n, m) = sum(J_f(n, k) * B^f(k, m-1) for k),    B^f(n, 0) = 1,

and B^f(n, m) is a polynomial in m of degree at most n-1 whose m**(n-1)
coefficient is n! * f_2**(n-1). For e^x - 1 every F_i = 1, J_f is the
Stirling triangle and f_2 = 1/2 gives the paper's n!/2**(n-1). Nothing
here calls the library except to compare with its Stirling rows.
"""

from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest

from bellpoly import stirling_row

# F_1, F_2, ... of each map, F_i = i! * f_i, all integers here.
MAPS = {
    "exp(x) - 1": lambda i: 1,
    "x / (1 - x)": factorial,  # f_i = 1; the triangle is the Lah numbers
    "-log(1 - x)": lambda i: factorial(i - 1),  # f_i = 1/i; the cycle numbers
    "x + x^2": lambda i: {1: 1, 2: 2}.get(i, 0),
    "x + x^3/6": lambda i: {1: 1, 3: 1}.get(i, 0),  # f_2 = 0: the degree drops
}


def jabotinsky(scaled, n_max):
    """Rows J_f(n, 0..n) for n = 0..n_max, from F_i = scaled(i)."""
    weights = [0] + [scaled(i) for i in range(1, n_max + 1)]
    rows = [[1]]
    for n in range(1, n_max + 1):
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = sum(  # J_f(n - i, k - 1) is 0 once n - i < k - 1
                comb(n - 1, i - 1) * weights[i] * rows[n - i][k - 1]
                for i in range(1, n - k + 2)
            )
        rows.append(row)
    return rows


def iterated_values(triangle, m_max):
    """B^f(n, m) as values[m][n], for m = 0..m_max and every row of the triangle."""
    values = [[1] * len(triangle)]
    for _ in range(m_max):
        previous = values[-1]
        values.append([sum(map(mul, row, previous)) for row in triangle])
    return values


def test_exponential_triangle_is_the_stirling_triangle():
    # The triangle never runs S(n, k) = k*S(n-1, k) + S(n-1, k-1).
    triangle = jabotinsky(MAPS["exp(x) - 1"], 64)
    for n, row in enumerate(triangle):
        assert tuple(row) == stirling_row(n), n


@pytest.mark.parametrize("name", MAPS)
def test_top_coefficient_is_n_factorial_times_f2_to_the_n_minus_1(name):
    scaled = MAPS[name]
    f2 = Fraction(scaled(2), 2)
    triangle = jabotinsky(scaled, 12)
    values = iterated_values(triangle, 12)
    for n in range(1, 13):
        samples = [values[m][n] for m in range(n + 1)]
        # The n-th difference of a degree <= n-1 polynomial vanishes, and its
        # (n-1)-th is the m**(n-1) coefficient times (n-1)!.
        assert sum((-1) ** (n - j) * comb(n, j) * s for j, s in enumerate(samples)) == 0, n
        top = sum((-1) ** (n - 1 - j) * comb(n - 1, j) * s for j, s in enumerate(samples[:n]))
        assert Fraction(top, factorial(n - 1)) == factorial(n) * f2 ** (n - 1), n


def test_lah_iterates_have_their_closed_form():
    # The m-th iterate of x/(1-x) is x/(1-m*x), so
    # B(n, m) = sum(C(n-1, k-1) * n!/k! * m**(n-k) for k in 1..n).
    values = iterated_values(jabotinsky(MAPS["x / (1 - x)"], 10), 5)
    for n in range(1, 11):
        for m in range(6):
            closed = sum(
                comb(n - 1, k - 1) * factorial(n) // factorial(k) * m ** (n - k)
                for k in range(1, n + 1)
            )
            assert values[m][n] == closed, (n, m)


def test_the_paper_map_reproduces_known_values():
    # B(3..6, 2) for e^x - 1, and the cycle-number map's different values
    # with the same leading law.
    paper = iterated_values(jabotinsky(MAPS["exp(x) - 1"], 6), 2)
    cycles = iterated_values(jabotinsky(MAPS["-log(1 - x)"], 6), 2)
    assert paper[2][3:] == [12, 60, 358, 2471]
    assert cycles[2][3:] == [14, 88, 694, 6578]
