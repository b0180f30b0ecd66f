"""The `bell` command line: outputs, exit codes, byte stability."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import bellpoly
import bellpoly.bell_numbers
import bellpoly.cli
import bellpoly.polynomial
from bellpoly.cli import main
from bellpoly.selfcheck import run_selfcheck

GOLDEN_TABLE = (
    "m\tn=1\tn=2\tn=3\tn=4\tn=5\tn=6\tn=7\tn=8\n"
    "1\t1\t2\t5\t15\t52\t203\t877\t4140\n"
    "2\t1\t3\t12\t60\t358\t2471\t19302\t167894\n"
    "3\t1\t4\t22\t154\t1304\t12915\t146115\t1855570\n"
    "4\t1\t5\t35\t315\t3455\t44590\t660665\t11035095\n"
    "5\t1\t6\t51\t561\t7556\t120196\t2201856\t45592666\n"
)


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


class TestTable:
    def test_default_grid_is_golden(self):
        rc, out = run_cli(["table"])
        assert rc == 0
        assert out == GOLDEN_TABLE

    def test_defaults_match_explicit_arguments(self):
        assert run_cli(["table"]) == run_cli(
            ["table", "--n-max", "8", "--m-max", "5", "--format", "tsv"]
        )

    def test_json_grid(self):
        rc, out = run_cli(["table", "--n-max", "2", "--m-max", "2", "--format", "json"])
        assert rc == 0
        assert json.loads(out) == {
            "n_max": 2,
            "m_max": 2,
            "rows": [
                {"m": 1, "values": ["1", "2"]},
                {"m": 2, "values": ["1", "3"]},
            ],
        }

    def test_markdown_grid(self):
        rc, out = run_cli(["table", "--n-max", "2", "--m-max", "1", "--format", "markdown"])
        assert rc == 0
        assert out.splitlines()[2] == "| 1 | 1 | 2 |"


class TestValue:
    def test_plain_values(self):
        assert run_cli(["value", "--n", "5", "--m", "5"]) == (0, "7556\n")
        assert run_cli(["value", "--n", "0", "--m", "9"]) == (0, "1\n")
        assert run_cli(["value", "--n", "3", "--m", "100000000"]) == (
            0,
            "15000000250000001\n",
        )

    def test_json_records_resolved_method(self):
        rc, out = run_cli(["value", "--n", "3", "--m", "2", "--format", "json"])
        assert rc == 0
        assert json.loads(out) == {"n": 3, "m": 2, "method": "recursion", "value": "12"}
        rc, out = run_cli(["value", "--n", "3", "--m", "5000", "--format", "json"])
        assert json.loads(out)["method"] == "poly"

    @pytest.mark.parametrize("method", ["egf", "recursion", "poly", "auto"])
    @pytest.mark.parametrize("n, m", [(0, 0), (0, 1500), (1, 0), (1, 1500), (9, 0)])
    def test_edges_are_one(self, n, m, method):
        argv = ["value", "--n", str(n), "--m", str(m), "--method", method]
        assert run_cli(argv) == (0, "1\n")
        doc = json.loads(run_cli([*argv, "--format", "json"])[1])
        resolved = ("poly" if m > 1000 else "recursion") if method == "auto" else method
        assert doc == {"n": n, "m": m, "method": resolved, "value": "1"}

    def test_methods_agree(self):
        outputs = {
            run_cli(["value", "--n", "6", "--m", "4", "--method", method])[1]
            for method in ("egf", "recursion", "poly", "auto")
        }
        assert outputs == {"44590\n"}


class TestPoly:
    def test_json_schema(self):
        rc, out = run_cli(["poly", "--n", "3"])
        assert rc == 0
        assert json.loads(out) == {
            "n": 3,
            "coefficients": ["1", "5/2", "3/2"],
            "leading_theorem": "3/2",
            "match": True,
        }

    def test_n1_and_n5(self):
        assert json.loads(run_cli(["poly", "--n", "1"])[1]) == {
            "n": 1,
            "coefficients": ["1"],
            "leading_theorem": "1",
            "match": True,
        }
        doc = json.loads(run_cli(["poly", "--n", "5"])[1])
        assert doc["leading_theorem"] == "15/2"
        assert doc["coefficients"] == ["1", "41/6", "35/2", "115/6", "15/2"]
        assert doc["match"] is True

    def test_zero_requires_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["poly", "--n", "0"])
        assert exc.value.code == 2
        rc, out = run_cli(["poly", "--n", "0", "--allow-zero"])
        assert rc == 0
        assert json.loads(out)["coefficients"] == ["1"]
        assert run_cli(["poly", "--n", "0", "--allow-zero", "--format", "tsv"]) == (
            0,
            "n\t0\nc_0\t1\nleading_theorem\t1\nmatch\ttrue\n",
        )

    def test_round_trip_reproduces_values(self):
        doc = json.loads(run_cli(["poly", "--n", "4"])[1])
        coeffs = [Fraction(c) for c in doc["coefficients"]]
        for m in range(0, 7):
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * m + c
            assert acc == int(run_cli(["value", "--n", "4", "--m", str(m)])[1])


class TestAsympt:
    def test_tsv_report(self):
        rc, out = run_cli(["asympt", "--n", "3", "--m", "1000"])
        assert rc == 0
        assert out == (
            "n\t3\nm\t1000\nexact\t1502501\nleading\t1500000\n"
            "ratio\t1502501/1500000\nratio_decimal\t1.001667\n"
        )

    def test_digits_option(self):
        rc, out = run_cli(
            ["asympt", "--n", "3", "--m", "100000", "--digits", "8", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["exact"] == "15000250001"
        assert doc["leading"] == "15000000000"
        assert doc["ratio_decimal"] == "1.00001667"

    def test_small_m_report(self):
        doc = json.loads(
            run_cli(["asympt", "--n", "3", "--m", "100", "--format", "json"])[1]
        )
        assert doc["exact"] == "15251"
        assert doc["leading"] == "15000"
        assert doc["ratio"] == "15251/15000"
        assert doc["ratio_decimal"] == "1.016733"

    def test_degenerate_n1_ratio_is_one(self):
        doc = json.loads(
            run_cli(["asympt", "--n", "1", "--m", "5", "--digits", "3", "--format", "json"])[1]
        )
        assert doc["ratio"] == "1"
        assert doc["ratio_decimal"] == "1.000"


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["value", "--n", "3", "--m", "2", "--method", "float64"],
            ["table", "--n-max", "0"],
            ["table", "--m-max", "-2"],
            ["value", "--n", "-1", "--m", "2"],
            ["asympt", "--n", "3", "--m", "0"],
            ["asympt", "--n", "3", "--m", "5", "--digits", "-1"],
            ["poly"],
            [],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main(argv)
        assert exc.value.code == 2

    def test_success_exits_0(self):
        assert run_cli(["table", "--n-max", "1", "--m-max", "1"])[0] == 0

    @pytest.mark.parametrize("k", [2149, 2150])
    def test_value_past_int_str_digit_limit(self, k):
        # B(3, 10^k) = 15*10^(2k-1) + 25*10^(k-1) + 1 has 2k + 1 digits:
        # 4299 and 4301 on either side of Python's 4300-digit str() limit.
        expected = "15" + "0" * (k - 2) + "25" + "0" * (k - 2) + "1\n"
        assert run_cli(["value", "--n", "3", "--m", "1" + "0" * k]) == (0, expected)

    @pytest.mark.parametrize("digits", [4299, 4300])
    def test_asympt_subprocess_past_int_str_digit_limit(self, digits):
        # 1502501/1500000 = 1.0016673333...; scaled by 10^digits it has
        # digits + 1 digits, on either side of the 4300-digit limit.
        cmd = [sys.executable, "-m", "bellpoly", "asympt", "--n", "3", "--m", "1000",
               "--digits", str(digits)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == (
            "ratio_decimal\t1.001667" + "3" * (digits - 6)
        )

    def test_consistency_error_exits_1_with_one_line(self, monkeypatch, capsys):
        real = bellpoly.polynomial.bell_via_recursion

        def corrupted(n, m):
            value = real(n, m)
            return value + 1 if (n, m) == (4, 4) else value

        bellpoly.clear_caches()  # a stored fit would hide the fault
        monkeypatch.setattr(bellpoly.polynomial, "bell_via_recursion", corrupted)
        try:
            assert main(["poly", "--n", "4"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "bell: interpolation for n=4 gives 315 at m=4, recursion gives 316\n"
        finally:
            monkeypatch.undo()
            bellpoly.clear_caches()

    def test_non_integral_egf_coefficient_exits_1_with_one_line(self, monkeypatch, capsys):
        real = bellpoly.bell_numbers.egf_iterate

        def corrupted(series):
            step = real(series)
            return type(step)(step.coeffs[:-1] + (step.coeffs[-1] + Fraction(1, 7),))

        monkeypatch.setattr(bellpoly.bell_numbers, "egf_iterate", corrupted)
        assert main(["value", "--n", "5", "--m", "3", "--method", "egf"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bell: 5! * a_5 = ") and err.endswith(" is not an integer\n")
        assert err.count("\n") == 1


class TestWorkLimits:
    RENDERERS = ("render_table", "render_value", "render_poly", "render_asympt")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["value", "--n", "64", "--m", "119", "--method", "egf"],
             "--m must be at most 118 on the egf route at --n 64"),
            (["value", "--n", "0", "--m", "500001", "--method", "egf"],
             "--m must be at most 500000 on the egf route at --n 0"),
            (["value", "--n", "10", "--m", "10001", "--method", "recursion"],
             "--n times --m must be at most 100000 on the recursion route"),
            (["value", "--n", "65", "--m", "2"], "--n must be at most 64"),
            (["value", "--n", "65", "--m", "10000000", "--method", "poly"],
             "--n must be at most 64"),
            (["poly", "--n", "65"], "--n must be at most 64"),
            (["asympt", "--n", "65", "--m", "5"], "--n must be at most 64"),
            (["asympt", "--n", "3", "--m", "5", "--digits", "100001"],
             "--digits must be at most 100000"),
            (["table", "--n-max", "65", "--m-max", "1"], "--n-max must be at most 64"),
            (["table", "--n-max", "10", "--m-max", "10001"],
             "--n-max times --m-max must be at most 100000"),
        ],
    )
    def test_impossible_work_is_refused_before_it_starts(self, monkeypatch, argv, message):
        def never(*args):
            raise AssertionError(f"{argv} started work past a limit")

        for name in self.RENDERERS:
            monkeypatch.setattr(bellpoly.cli, name, never)
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                main(argv)
        assert exc.value.code == 2
        lines = err.getvalue().splitlines()
        assert lines[-1] == f"bell: error: {message}"
        assert sum("error:" in line for line in lines) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["value", "--n", "64", "--m", "118", "--method", "egf"],
            ["value", "--n", "0", "--m", "500000", "--method", "egf"],
            ["value", "--n", "50", "--m", "2000", "--method", "recursion"],
            ["value", "--n", "64", "--m", "1000", "--method", "auto"],
            ["value", "--n", "64", "--m", "10000000"],
            ["poly", "--n", "64"],
            ["asympt", "--n", "64", "--m", "5", "--digits", "100000"],
            ["table", "--n-max", "64", "--m-max", "1562"],
        ],
    )
    def test_largest_inputs_are_accepted(self, monkeypatch, argv):
        # The work is stubbed out: this checks the limits, not the routes.
        for name in self.RENDERERS:
            monkeypatch.setattr(bellpoly.cli, name, lambda *args: "stub\n")
        assert run_cli(argv) == (0, "stub\n")

    def test_cold_import_skips_unused_modules_and_loads_every_layer(self):
        # -S keeps site hooks from importing anything before bellpoly does.
        code = "import sys, bellpoly.cli; print(' '.join(sys.modules))"
        env = {"PYTHONPATH": str(Path(bellpoly.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        loaded = set(proc.stdout.split())
        assert not loaded & {"dataclasses", "inspect", "json", "typing"}
        layers = ("bell_numbers", "polynomial", "rational_poly", "combinatorics",
                  "rendering", "oracles", "selfcheck", "cli")
        assert {f"bellpoly.{layer}" for layer in layers} <= loaded


class TestByteStability:
    def test_repeated_runs_are_identical(self):
        cmd = [sys.executable, "-m", "bellpoly", "table", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.decode() == run_cli(["table", "--format", "json"])[1]

    def test_selfcheck_subprocess_exits_0(self):
        cmd = [sys.executable, "-m", "bellpoly", "selfcheck"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip().endswith("invariants hold")


class TestSelfcheckFaultInjection:
    def test_corrupted_recursion_route_is_named_first(self, monkeypatch):
        real = bellpoly.bell_numbers.stirling_row

        def corrupted(n):
            row = real(n)  # S(5, 3) off by one
            return (*row[:3], row[3] + 1, *row[4:]) if n == 5 else row

        bellpoly.clear_caches()
        monkeypatch.setattr(bellpoly.bell_numbers, "stirling_row", corrupted)
        try:
            out = io.StringIO()
            rc = run_selfcheck(stream=out)
            report = out.getvalue()
            assert rc == 1
            assert (
                "first failed invariant: cross-method equivalence (EGF vs recursion)"
                in report
            )
            assert "ok   stirling2 matches set-partition enumeration" in report
        finally:
            monkeypatch.undo()
            bellpoly.clear_caches()
