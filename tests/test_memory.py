"""Repeated queries must not leave memory behind.

A tuple built from a generator is resized after it is filled, and freed
tuples go to CPython's per-size free lists (up to 2,000 tuples per
size). A hot path that builds them that way grows the process by up
to 2,000 blocks per tuple size, and a full garbage collection, which
would empty the lists, rarely runs. Each case runs in a fresh
interpreter with the collector off, warms the memo tables with one pass,
and counts the blocks still allocated after more passes.
"""

import subprocess
import sys

import pytest

PASSES = {
    # 16 EGF values per pass, 25 series steps each
    "egf": "for n in range(3, 19):\n    bellpoly.bell_via_egf(n, 25)",
    # both Bell-polynomial constructions and an evaluation, n = 2..18
    "polynomial": (
        "for n in range(2, 19):\n"
        "    bellpoly.construct_bell_polynomial(n)\n"
        "    bellpoly.asymptotic_report(n, 10 ** 6 + n)"
    ),
}

PROBE = """
import gc, sys
import bellpoly
gc.disable()
def one_pass():
{body}
one_pass()
before = sys.getallocatedblocks()
for _ in range({repeats}):
    one_pass()
print(sys.getallocatedblocks() - before)
"""


@pytest.mark.parametrize("route", sorted(PASSES))
def test_repeated_calls_do_not_grow_allocated_blocks(route):
    body = "\n".join("    " + line for line in PASSES[route].splitlines())
    code = PROBE.format(body=body, repeats=4)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # Generator-built tuples left about 1,100 (polynomial) and 1,600 (egf)
    # blocks here; list-built ones leave a handful.
    assert int(proc.stdout) < 200
