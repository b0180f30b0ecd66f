"""How fast the machine runs right now, from a fixed pure-Python kernel.

On a shared machine the same computation can take 50% longer from one
minute to the next, and that drift moves every time in a run together.
Each run times this kernel in the runner process between its cold
requests and starts, and between chunks of the in-process window, and
scales its times to the speed at which the kernel takes REFERENCE_S:
a time t measured while the kernel's median was k is
reported as t * REFERENCE_S / k, a rate r as r * k / REFERENCE_S. The
kernel uses neither the library nor its memory, so a change to the
library cannot change the scale. The raw times are reported too.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from math import comb

# About the kernel's median time on the 2-vCPU machine the bounds were set
# on (it ranged from 1.1 to 2.1 ms there); it only fixes the unit.
REFERENCE_S = 0.0016


def kernel_seconds() -> float:
    """One timed run of the kernel: Fraction and big-integer arithmetic in Python loops."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        values = [Fraction(1)]
        for i in range(1, 28):
            acc = sum(comb(i + 1, j) * values[j] for j in range(i))
            values.append(Fraction(-acc, i + 1))
        x = 1
        for i in range(1, 400):
            x = x * (i + 7) + i
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def sample(samples: list[float], count: int = 2) -> None:
    samples.extend(kernel_seconds() for _ in range(count))


def scale(samples: list[float]) -> float:
    """How much slower than the reference the machine ran: k / REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S
