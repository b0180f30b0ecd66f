"""Naive oracles, independent of the fast paths.

Brute-force enumeration for the Stirling numbers, and the plain rational
form of one exponential-map step for the integer EGF kernel.
"""

from __future__ import annotations

from fractions import Fraction

from .bell_numbers import TruncatedEGF

def partition_block_counts(n: int) -> tuple[int, ...]:
    """counts[k] = number of partitions of an n-set into exactly k blocks.

    Enumerates every set partition of the first n-1 elements as a
    restricted-growth string: each element either joins an existing
    block or opens a new one. The last element's choices are counted at
    once: it joins one of the open blocks or opens its own. Shares
    nothing with the Stirling triangle it is used to check, and keeps
    nothing between calls; the n = 12 run walks the 678,570 partitions
    of 11 elements.
    """
    if n < 0:
        raise ValueError("set size must be non-negative")
    counts = [0] * (n + 1)
    if n <= 1:
        counts[n] = 1  # the empty partition, or the one block {1}
    else:

        def descend(i: int, blocks: int) -> None:
            if i == n - 1:  # the last element
                counts[blocks] += blocks  # joins one of the open blocks
                counts[blocks + 1] += 1  # opens a new block
                return
            for _ in range(blocks):  # element i joins one of the open blocks
                descend(i + 1, blocks)
            descend(i + 1, blocks + 1)  # element i opens a new block

        descend(1, 1)
    return tuple(counts)


def egf_step_rational(series: TruncatedEGF) -> TruncatedEGF:
    """One step E -> exp(E - 1) in plain Fraction arithmetic.

    With f = E - 1, g = exp(f) satisfies g' = f'g, giving g_0 = 1 and
    g_j = (1/j) * sum(i * f_i * g_{j-i}, i = 1..j). Nothing is scaled
    and nothing checks integrality, so the step reproduces whatever
    denominators the iterates really have; it checks egf_iterate, which
    runs the same relation on the integers i! * a_i.
    """
    if series.coeffs[0] != 1:
        raise ValueError("not an exponential-map iterate: constant term != 1")
    f = series.coeffs  # f_i = a_i for i >= 1; subtracting 1 only clears a_0
    g = [Fraction(1)]
    for j in range(1, series.order + 1):
        acc = sum(i * f[i] * g[j - i] for i in range(1, j + 1))
        g.append(Fraction(acc, j))
    return TruncatedEGF(tuple(g))
