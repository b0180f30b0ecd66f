"""Seeded inputs and answer checks for the three workloads.

Every workload is one closed-loop caller: the next query starts when the
previous one has finished. Queries come in rounds. A round holds a fixed
mix of query shapes; the seed draws the exact inputs inside each shape
and the order, so the same seed gives the same inputs while the cost of
a round barely depends on the seed. cli-cold measures whole rounds; the
in-process workloads run rounds back to back until their time is up.

values       (n, m) answered by bell_via_egf and bell_via_recursion,
             which must agree: the paper's value cross-check. The EGF
             route is uncached and linear in m, so it dominates; the
             recursion memo both fills and hits; rational_poly is
             never touched. A round is the 4 x 4 grid of n in 3..18
             and m in 1..64 strata.
polynomials  n drawn with repeats from a skewed mix of 2..18; each query
             runs construct_bell_polynomial(n), verify_theorem(n),
             asymptotic_report(n, m) at m in 10^4..10^9 and
             decimal_expansion of the ratio. RationalPolynomial.shift
             and re-interpolation dominate; repeated n lets a per-n
             cache show; the EGF route is never called.
cli-cold     `python -m bellpoly` as a fresh process per request: table,
             value (auto, egf, recursion, poly), poly and asympt, the
             formats rotating through tsv/json/markdown, then a few
             `bell selfcheck` runs, timed on their own (selfcheck_s).
             Interpreter start and import are most of a small request,
             and in-process caching gains nothing.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import reference

WORKLOADS = ("values", "polynomials", "cli-cold")
FORMATS = ("tsv", "json", "markdown")

# The highest percentile that leaves at least ten samples beyond it in
# every workload at the run length in BENCHMARK.json, fixed so that a
# faster program keeps reporting the same percentile.
TAIL_PERCENTILE = 95.0

VALUES_N = ((3, 6), (7, 10), (11, 14), (15, 18))
VALUES_M = ((1, 16), (17, 32), (33, 48), (49, 64))
# (n range, queries per round): small n repeat most often. Query cost hangs on n
# alone, so the strata that hold the median (n = 9) and the 95th percentile
# (n = 18) are single values; a seed-drawn mix there would move those percentiles.
POLYNOMIAL_N = (((2, 5), 3), ((6, 8), 3), ((9, 9), 4), ((10, 14), 3), ((15, 16), 1), ((18, 18), 2))

SELFCHECK_LAST_LINE = re.compile(r"selfcheck: all (\d+) invariants hold")


def values_round(rng: random.Random, index: int) -> list[tuple[int, int]]:
    queries = [(rng.randint(*n), rng.randint(*m)) for n in VALUES_N for m in VALUES_M]
    rng.shuffle(queries)
    return queries


def polynomials_round(rng: random.Random, index: int) -> list[tuple[int, int, int, int]]:
    """(n, m, digits, m_check): m_check in n+1..n+2 lies past every node the library samples."""
    queries = []
    for n_range, count in POLYNOMIAL_N:
        for _ in range(count):
            n = rng.randint(*n_range)
            queries.append((n, rng.randint(10 ** 4, 10 ** 9), rng.randint(10, 40), n + rng.randint(1, 2)))
    rng.shuffle(queries)
    return queries


def cli_round(rng: random.Random, index: int) -> list[tuple[str, ...]]:
    """One round of `bell` argument lists; each shape moves to the next format every round."""

    def fmt(shape: int) -> tuple[str, str]:
        return ("--format", FORMATS[(index + shape) % 3])

    def num(flag: str, lo: int, hi: int) -> tuple[str, str]:
        return (flag, str(rng.randint(lo, hi)))

    def value(n_hi: int, m_lo: int, m_hi: int, method: str, shape: int) -> tuple[str, ...]:
        return ("value", *num("--n", 3, n_hi), *num("--m", m_lo, m_hi), "--method", method, *fmt(shape))

    requests = [
        ("table", *num("--n-max", 4, 10), *num("--m-max", 3, 8), *fmt(0)),
        ("table", *num("--n-max", 4, 10), *num("--m-max", 3, 8), *fmt(1)),
        value(12, 2, 200, "auto", 2),  # auto below its polynomial threshold
        value(10, 1001, 10 ** 6, "auto", 0),  # auto above it
        value(10, 1, 20, "egf", 1),
        value(15, 1, 300, "recursion", 2),
        value(12, 1, 10 ** 6, "poly", 0),
        ("poly", *num("--n", 3, 14), *fmt(1)),
        ("poly", *num("--n", 3, 14), *fmt(2)),
        ("asympt", *num("--n", 3, 12), *num("--m", 10, 10 ** 6), *num("--digits", 3, 20), *fmt(0)),
        ("asympt", *num("--n", 3, 12), *num("--m", 10, 10 ** 6), *num("--digits", 3, 20), *fmt(1)),
    ]
    rng.shuffle(requests)
    return requests


ROUNDS = {"values": values_round, "polynomials": polynomials_round, "cli-cold": cli_round}


def rounds(workload: str, seed: int):
    """The endless sequence of rounds for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    index = rng.randrange(3)  # which format each cli shape starts with
    while True:
        yield ROUNDS[workload](rng, index)
        index += 1


def check_value(query: tuple[int, int], answer) -> str | None:
    if isinstance(answer, BaseException):
        return f"B{query}: raised {answer!r}"
    via_egf, via_recursion = answer
    if via_egf != via_recursion:
        return f"B{query}: EGF gives {via_egf}, recursion gives {via_recursion}"
    return None


def check_polynomial(query: tuple[int, int, int, int], answer) -> str | None:
    """Check one polynomials answer against the reference.

    `answer` is (BellPolynomial, verify_theorem value, AsymptoticReport,
    decimal string).
    """
    n, m, digits, m_check = query
    if isinstance(answer, BaseException):
        return f"polynomial n={n}: raised {answer!r}"
    bell_poly, lead, report, decimal = answer
    if bell_poly.poly.evaluate(m_check) != reference.bell(n, m_check):
        return f"B_{n}({m_check}) from the polynomial disagrees with the reference"
    if lead != reference.leading(n):
        return f"verify_theorem({n}) returned {lead}"
    if report.exact != reference.bell(n, m):
        return f"asymptotic_report({n}, {m}).exact is {report.exact}"
    ratio = Fraction(report.exact) / (reference.leading(n) * m ** (n - 1))
    if report.ratio != ratio:
        return f"asymptotic_report({n}, {m}).ratio is {report.ratio}, not {ratio}"
    if decimal != reference.decimal_text(ratio, digits):
        return f"decimal_expansion of B({n}, {m}) ratio to {digits} places gave {decimal}"
    return None


def expected_outputs(args: tuple[str, ...]) -> tuple[str, ...]:
    """Every stdout `bell args` may print, from the reference; () for selfcheck.

    `--method auto` may resolve to any route, so each route's rendering
    is accepted; the value itself is the same in all of them.
    """
    if args[0] == "selfcheck":
        return ()
    opts = dict(zip(args[1::2], args[2::2]))
    num = {k: int(v) for k, v in opts.items() if k not in ("--method", "--format")}
    fmt = opts["--format"]
    if args[0] == "table":
        return (reference.table_output(num["--n-max"], num["--m-max"], fmt),)
    if args[0] == "value":
        methods = ("egf", "recursion", "poly") if opts["--method"] == "auto" else (opts["--method"],)
        return tuple(reference.value_output(num["--n"], num["--m"], r, fmt) for r in methods)
    if args[0] == "poly":
        return (reference.poly_output(num["--n"], fmt),)
    return (reference.asympt_output(num["--n"], num["--m"], num["--digits"], fmt),)


def check_cli(args: tuple[str, ...], expected: tuple[str, ...], rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"bell {' '.join(args)}: exit code {rc}"
    if args[0] == "selfcheck":
        lines = stdout.splitlines()
        last = SELFCHECK_LAST_LINE.fullmatch(lines[-1]) if lines else None
        if not last or int(last.group(1)) != len(lines) - 1 or not all(
            line.startswith("ok   ") for line in lines[:-1]
        ):
            return f"bell selfcheck: unexpected report ending {lines[-1:]!r}"
        return None
    if stdout not in expected:
        return f"bell {' '.join(args)}: printed {stdout[:200]!r}"
    return None
