"""Acceptance gate: the ten release criteria, and every selfcheck invariant.

Each invariant's loop is written once, in `bellpoly.selfcheck.CHECKS`;
`test_invariant[<label>]` runs each check as its own test. Criteria 3-8
run named checks from `CHECKS` and hold no arithmetic of their own;
criteria 1, 2 and 9 keep their own goldens, and criterion 10 runs the
whole `bell selfcheck` report.

Each criterion runs as its own test and prints a single line of the
form "criterion NN PASS/FAIL: <title>" (timed criteria include the
elapsed seconds). The lines bypass pytest's capture so they appear in
any run; failures also fail the test itself.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest

from bellpoly import bell_via_recursion, clear_caches, leading_coefficient
from bellpoly.cli import main
from bellpoly.selfcheck import CHECKS, run_selfcheck

GOLDEN_TABLE = (
    "m\tn=1\tn=2\tn=3\tn=4\tn=5\tn=6\tn=7\tn=8\n"
    "1\t1\t2\t5\t15\t52\t203\t877\t4140\n"
    "2\t1\t3\t12\t60\t358\t2471\t19302\t167894\n"
    "3\t1\t4\t22\t154\t1304\t12915\t146115\t1855570\n"
    "4\t1\t5\t35\t315\t3455\t44590\t660665\t11035095\n"
    "5\t1\t6\t51\t561\t7556\t120196\t2201856\t45592666\n"
)

# (m, exact B_3(m), leading (3/2) m^2) at m = 10**2, 10**5, 10**8
GOLDEN_LARGE_M = (
    (100, 15251, 15000),
    (100000, 15000250001, 15000000000),
    (100000000, 15000000250000001, 15000000000000000),
)


@pytest.fixture(scope="module", autouse=True)
def _cold_start():
    clear_caches()
    yield


@pytest.fixture
def criterion(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:  # pragma: no cover - capture plugin always present under pytest
            print(line, flush=True)

    @contextmanager
    def run(number, title, limit=None):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            emit(f"criterion {number:02d} FAIL: {title}")
            raise
        elapsed = time.perf_counter() - start
        timing = f" [{elapsed:.2f}s < {limit:g}s]" if limit is not None else ""
        if limit is not None and elapsed >= limit:
            emit(f"criterion {number:02d} FAIL: {title} (took {elapsed:.2f}s)")
            pytest.fail(f"{title}: took {elapsed:.2f}s, limit {limit:g}s")
        emit(f"criterion {number:02d} PASS: {title}{timing}")

    return run


def run_checks(*labels):
    """Run the named `selfcheck.CHECKS` entries; each raises if it fails."""
    checks = dict(CHECKS)
    for label in labels:
        checks[label]()


def cli_output(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    assert rc == 0
    return out.getvalue()


def test_criterion_01_reference_grid(criterion):
    with criterion(1, "CLI table reproduces the reference 8 x 5 grid", limit=1.0):
        argv = ["table", "--n-max", "8", "--m-max", "5", "--format", "tsv"]
        out = cli_output(argv)
        assert out == GOLDEN_TABLE
        assert out.splitlines()[5].split("\t")[8] == "45592666"
        assert cli_output(["table"]) == out


def test_criterion_02_large_m_values(criterion):
    with criterion(
        2, "polynomial route reproduces B_3 and its leading term at large m", limit=1.0
    ):
        for m, exact, leading in GOLDEN_LARGE_M:
            out = cli_output(["value", "--n", "3", "--m", str(m), "--method", "poly"])
            assert out == f"{exact}\n"
            assert leading_coefficient(3) * m ** 2 == leading


def test_criterion_03_leading_coefficient(criterion):
    with criterion(3, "leading coefficient equals n!/2^(n-1) for n <= 10"):
        run_checks("leading coefficient n!/2^(n-1) via halving recurrence")


def test_criterion_04_polynomial_shape(criterion):
    with criterion(
        4, "polynomial has degree n-1, constant term 1, rational coefficients (n <= 10)"
    ):
        run_checks(
            "bell polynomial shape (degree, constant term, rational coefficients)",
            "dual-construction equality",
            "polynomial/recursion value consistency",
        )


def test_criterion_05_dual_construction(criterion):
    with criterion(
        5, "interpolation and telescoping agree coefficient-for-coefficient (n <= 10)",
        limit=10.0,
    ):
        run_checks("dual-construction equality")


def test_criterion_06_cross_method(criterion):
    with criterion(
        6, "EGF iteration and Stirling recursion agree for n <= 12, m <= 6", limit=10.0
    ):
        run_checks("cross-method equivalence (EGF vs recursion)")


def test_criterion_07_power_sums(criterion):
    with criterion(
        7, "power-sum polynomials match direct summation for r <= 12, m <= 200"
    ):
        run_checks(
            "faulhaber matches power-sum oracle",
            "faulhaber shape (degree, constant term, leading 1/(r+1))",
        )


def test_criterion_08_stirling_oracle(criterion):
    with criterion(
        8, "Stirling numbers match set-partition enumeration for n <= 12"
    ):
        run_checks(
            "stirling2 matches set-partition enumeration",
            "stirling2 near-diagonal identity S(n,n-1) = C(n,2)",
        )


def test_criterion_09_asymptotic_tolerance(criterion):
    with criterion(
        9, "|B_3(m)/leading - 1| <= 1.7e-4 at m = 10^4 and shrinks from m = 10^3"
    ):
        lead = leading_coefficient(3)
        off_4 = Fraction(bell_via_recursion(3, 10 ** 4)) / (lead * 10 ** 8) - 1
        off_3 = Fraction(bell_via_recursion(3, 10 ** 3)) / (lead * 10 ** 6) - 1
        assert off_4 == Fraction(25001, 150000000)
        assert abs(off_4) <= Fraction(17, 100000)
        assert abs(off_4) < abs(off_3)


def test_criterion_10_selfcheck(criterion):
    with criterion(10, "bell selfcheck passes every invariant and exits 0", limit=60.0):
        out = io.StringIO()
        with redirect_stdout(out):
            assert run_selfcheck() == 0
        report = json.dumps(out.getvalue())  # embed for the failure message
        assert "FAIL" not in out.getvalue(), report
        assert out.getvalue().splitlines()[-1] == "selfcheck: all 19 invariants hold"


@pytest.mark.parametrize("label, check", CHECKS, ids=[label for label, _ in CHECKS])
def test_invariant(label, check):
    check()
