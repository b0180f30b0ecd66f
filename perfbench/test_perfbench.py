"""Tests of the benchmark itself: its checker, its reference and a tiny run.

Run from the repository root: python -m pytest perfbench -q
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bell_stdout(args):
    from bellpoly.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(args)) == 0
    return out.getvalue()


def test_reference_reproduces_every_request_of_a_round():
    for index, requests in zip(range(3), workloads.rounds("cli-cold", 7)):
        for args in requests:
            if args[0] != "selfcheck":
                assert bell_stdout(args) in workloads.expected_outputs(args), args


def test_reference_values_match_the_recursion():
    from bellpoly import bell_via_recursion

    for n in range(0, 10):
        for m in range(0, 12):
            assert reference.bell(n, m) == bell_via_recursion(n, m)


def test_checker_flags_unequal_routes():
    assert workloads.check_value((5, 3), (1304, 1304)) is None
    assert workloads.check_value((5, 3), (1304, 1305))
    assert workloads.check_value((5, 3), ZeroDivisionError())


def test_checker_flags_each_wrong_polynomial_field():
    n, m, digits = 4, 1000, 12
    exact = reference.bell(n, m)
    ratio = Fraction(exact) / (reference.leading(n) * m ** (n - 1))

    def answer(**wrong):
        fields = {
            "poly": SimpleNamespace(evaluate=lambda x: reference.bell(n, x)),
            "lead": reference.leading(n),
            "report": SimpleNamespace(exact=exact, ratio=ratio),
            "decimal": reference.decimal_text(ratio, digits),
        }
        fields.update(wrong)
        return (SimpleNamespace(poly=fields["poly"]), fields["lead"], fields["report"],
                fields["decimal"])

    query = (n, m, digits, n + 1)
    assert workloads.check_polynomial(query, answer()) is None
    bad = [
        answer(poly=SimpleNamespace(evaluate=lambda x: reference.bell(n, x) + 1)),
        answer(lead=reference.leading(n) * 2),
        answer(report=SimpleNamespace(exact=exact + 1, ratio=ratio)),
        answer(report=SimpleNamespace(exact=exact, ratio=ratio * 2)),
        answer(decimal=reference.decimal_text(ratio, digits)[:-1] + "9"),
    ]
    for wrong in bad:
        assert workloads.check_polynomial(query, wrong)


def test_checker_flags_wrong_cli_output_and_exit_code():
    args = ("value", "--n", "3", "--m", "2", "--method", "auto", "--format", "json")
    expected = workloads.expected_outputs(args)
    good = '{"n": 3, "m": 2, "method": "recursion", "value": "12"}\n'
    assert workloads.check_cli(args, expected, 0, good) is None
    assert workloads.check_cli(args, expected, 0, good.replace("12", "13"))
    assert workloads.check_cli(args, expected, 1, good)
    ok = "ok   a\nok   b\nselfcheck: all 2 invariants hold\n"
    assert workloads.check_cli(("selfcheck",), (), 0, ok) is None
    assert workloads.check_cli(("selfcheck",), (), 0, ok.replace("ok   b", "FAIL b: x"))
    assert workloads.check_cli(("selfcheck",), (), 0, "")


def test_a_wrong_answer_is_counted_in_error_rate(monkeypatch):
    """Wrong expected answers for `table`, fed to the benchmark's own checker."""
    original = workloads.expected_outputs
    monkeypatch.setattr(
        workloads, "expected_outputs",
        lambda args: ("wrong\n",) if args[0] == "table" else original(args),
    )
    bench = run.Run("cli-cold", 3, 1, False)
    metrics, notes = bench.end_to_end()
    rounds = (bench.attempted - run.SELFCHECKS) // 11  # whole rounds of 11 requests
    assert rounds >= 1 and bench.attempted == 11 * rounds + run.SELFCHECKS
    assert len(bench.failures) == 2 * rounds  # two table requests per round
    assert all(f.startswith("bell table") for f in bench.failures)
    assert metrics["selfcheck_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected
    if not trace:
        for w in workloads.WORKLOADS:
            assert any(line.split()[:3] == [w, "error_rate", "0"] for line in lines)
        assert any(line.split()[:2] == ["cli-cold", "selfcheck_s"] for line in lines)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "values", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
