"""The `bell` command line: outputs, exit codes, byte stability."""

import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellpoly
import bellpoly.bell_numbers
import bellpoly.cli
import bellpoly.polynomial
import bellpoly.selfcheck
from bellpoly.cli import main
from bellpoly.polynomial import ConsistencyError
from bellpoly.rational_poly import RationalPolynomial
from bellpoly.rendering import FORMATS, METHODS
from bellpoly.selfcheck import run_selfcheck

GOLDEN_TABLE = (
    "m\tn=1\tn=2\tn=3\tn=4\tn=5\tn=6\tn=7\tn=8\n"
    "1\t1\t2\t5\t15\t52\t203\t877\t4140\n"
    "2\t1\t3\t12\t60\t358\t2471\t19302\t167894\n"
    "3\t1\t4\t22\t154\t1304\t12915\t146115\t1855570\n"
    "4\t1\t5\t35\t315\t3455\t44590\t660665\t11035095\n"
    "5\t1\t6\t51\t561\t7556\t120196\t2201856\t45592666\n"
)


# SHA-256 of the stdout of `bell ARGS`, pinned when the polynomial route
# still shifted every difference; any change to the arithmetic or the
# rendering behind these outputs must leave them byte for byte the same.
OUTPUT_SHA256 = {
    "poly --n 1 --format tsv": "27bb48da10048790ac0e64e21c03d06731a9c8272dc38c5ffa6c9a24fbb289e0",
    "asympt --n 1 --m 1000 --digits 40 --format tsv": "5b3394128d88a5dbd15308c3b26eceb213e27f5ae6d0a55f35fee831c23b64a8",
    "poly --n 1 --format json": "71d8076a29ee0b10de8697ec8238ca8f37759e5a747c750698f5d2f456083cea",
    "asympt --n 1 --m 1000 --digits 40 --format json": "ee0d242f638396df5ff0e52167c9d4ac79bee44dfdd13129aea78a77b44185a9",
    "poly --n 1 --format markdown": "941e0a0e7221e936473f7b2ade0483638f90f96322d545de3c6e1d97aa2468ed",
    "asympt --n 1 --m 1000 --digits 40 --format markdown": "4068f89d975206e7e2eb57a7c5fe3d614407356ee066085b14e41715561e116a",
    "poly --n 2 --format tsv": "cab6a77652bced105b2cd93851dc75f0dfdc75e96d277923e3fff0bd232c24c6",
    "asympt --n 2 --m 1000 --digits 40 --format tsv": "f7ca14c50ae13b0832f146a147fbda8debce7983663796bc6b34c121ebbec533",
    "poly --n 2 --format json": "9e49d00172a084c349fd3b43b1f9841e2564cb4f7d2ecc39231444508a9f02b9",
    "asympt --n 2 --m 1000 --digits 40 --format json": "4dac1b522c0eaed87ca6a3fb30c7497aa31dff7037efccdce330282b7359020e",
    "poly --n 2 --format markdown": "caf62348f643812a53056b554e9068835cdb24a48bade7821edaaae360f265dd",
    "asympt --n 2 --m 1000 --digits 40 --format markdown": "6a931415181b60b0588b267a37c62d163a457b8c9c77264df9ee190b5bffa155",
    "poly --n 3 --format tsv": "d9863613b5e60db721ec53f195a7864a99c876e71ad48be85d8caae28c61c07c",
    "asympt --n 3 --m 1000 --digits 40 --format tsv": "cd46afb6b8b5ef5ba216945e00e66b2684709a16f1a13223d3583a05c90d6887",
    "poly --n 3 --format json": "503447c6d6c37baab4985cf436aaa49bf8f879f7f86739434198f0142c59b778",
    "asympt --n 3 --m 1000 --digits 40 --format json": "9dcff88ad66125b24964e98b77af70234c851e88e24551dce93bbde8953ba8b9",
    "poly --n 3 --format markdown": "5a2f9ef2dc6133d2eeac220968ea3912187447d5093c082d3186c208bae041ad",
    "asympt --n 3 --m 1000 --digits 40 --format markdown": "5bf221429fdd69519ad93649a678e63d25e01b2d544e852e119e4a03d453509f",
    "poly --n 5 --format tsv": "f95712669fc174b559cc6055f98550e9e18e2d3195866e5b2354a2249d1a2404",
    "asympt --n 5 --m 1000 --digits 40 --format tsv": "65118e6ea02920f04bdef52c8c828c2c11510dd7ecb103517d35d95f8d3ffedf",
    "poly --n 5 --format json": "e4dfcb9e0afac8b9dad246a1f127d3cfb8742ef5f6913891e62146902aa31f08",
    "asympt --n 5 --m 1000 --digits 40 --format json": "acc39e1a07a80c740cef37b84b9bc17bf6b99a8866dbe75d019cab9d20d1f8d4",
    "poly --n 5 --format markdown": "a037576cda23e678c72c9c87bc82a116911081b871883c6c9fd19dc6a6685ccc",
    "asympt --n 5 --m 1000 --digits 40 --format markdown": "5f888df47d98c8bd3b8a3aaf9aa5e8d5f65e8b4fcb47f43128d1be8cf70f41dc",
    "poly --n 8 --format tsv": "337f91baab4d709465ce4280c258bba1d910573f3f53ce99f64a979255b54909",
    "asympt --n 8 --m 1000 --digits 40 --format tsv": "4bbb30414712daf463b3f13e21f879a078f7626dbee8d99e4baee130b44ef264",
    "poly --n 8 --format json": "26f61dd82071f169c9dee4e3ec587fc630ee442c638247caac7ba9d24b3fa091",
    "asympt --n 8 --m 1000 --digits 40 --format json": "31f7f32a339621ca6fdf1a2ba6b6529a68f77cba114fa8af14d8aa30200fd8d2",
    "poly --n 8 --format markdown": "81ac964a99dc89cbea1b552cb71fa3afffcf6cdb96b635d1a3beb5d1630c7995",
    "asympt --n 8 --m 1000 --digits 40 --format markdown": "141ede62ffabfd367154dee2d1efc0001f010895c89a58f242546891060f8b9d",
    "poly --n 13 --format tsv": "6b10abcb335b0d5af98f905808e44b44f41d5b3fbd1179ef8df789efe50ae925",
    "asympt --n 13 --m 1000 --digits 40 --format tsv": "069842d953b8921e0e0d931d190c16674a81495e1d89edf77ce99f2a63df6321",
    "poly --n 13 --format json": "ba7ec0139ea423d84c135e3663a7de8dae2727c368465e58b4e89b1c4378c794",
    "asympt --n 13 --m 1000 --digits 40 --format json": "8c2591082899e143530157939cb7a815972908fc386401953b32d18c2d47eb39",
    "poly --n 13 --format markdown": "8d98adcde65b23466ebbb84bdbf5f8623d2ac63187aab919fa40181ec462a664",
    "asympt --n 13 --m 1000 --digits 40 --format markdown": "01cc03ce503b852d04db6531e321cf556923986e7d8a0d17059152b296db5798",
    "poly --n 20 --format tsv": "05fedbe89f5ae70c12f4abc61273d494235f31cd2e5cb767e8da44581c9f8fa2",
    "asympt --n 20 --m 1000 --digits 40 --format tsv": "fe583b23d810b337584177d9a288838acfe423ffc97fc8bd60c2501c39ad330e",
    "poly --n 20 --format json": "cf258bd0adb8619cea5e325ef03f0bc8a75f8a02b388fdd4b38a86f64e9c120b",
    "asympt --n 20 --m 1000 --digits 40 --format json": "f5464efbc2a7536babc32a9dfe4f1e666d074dd84c9a1803f21851a988eca52c",
    "poly --n 20 --format markdown": "ed8298fe5fa20a832709a504c03f2cfcd06443f7457bc24fb11483c333d935fd",
    "asympt --n 20 --m 1000 --digits 40 --format markdown": "dfc339c7077e6803ce80836c7ba3f5117694381a64e461a7d6d97f43c0fd398d",
    "poly --n 40 --format tsv": "0e4a45b2fc206034fd2e9eae9a68854f40388b036b903239024188655e36a7cd",
    "asympt --n 40 --m 1000 --digits 40 --format tsv": "9aa51750e93fda96b9f8968fac908d5c8a2e1e21515ff31156fadea9c2498d45",
    "poly --n 40 --format json": "f715764deec83b00cfe0cd2631664dce5e8d187d074d9d00e0a7f9391b1f756c",
    "asympt --n 40 --m 1000 --digits 40 --format json": "fa7fceb4ae51eeb16e06d767ee9273016ce079990d61471aa57044729ba7ee37",
    "poly --n 40 --format markdown": "c4c8e5c4b3ba021e2db399fac9c2584a8644268564268014ff0ac39fd2dd6fbd",
    "asympt --n 40 --m 1000 --digits 40 --format markdown": "d3fe9a799a631d33c3a7e56ead0b35f556a1d856e11fcce9423ac11f18813d50",
    "poly --n 64 --format tsv": "722f55282e22b4e4d16d2b2b4f8a43d6479a8af791fbdedcd0e438cda87f2a60",
    "asympt --n 64 --m 1000 --digits 40 --format tsv": "c42a66ac59d64fb663ba68258dbd5cccce61e85786e27f664968396b33fa4b5c",
    "poly --n 64 --format json": "140ea0aaf5bada25d645883c56705c2e6f0415f2b9698c6bee70787fa6b0ede9",
    "asympt --n 64 --m 1000 --digits 40 --format json": "5810c7af75d3f6017b608b37dc4957d52178617e89521df3b0c7feff7c48371d",
    "poly --n 64 --format markdown": "74ff70cb3575fb4874dcdecbd3aa5a3856566027818c73dc0779eb3fb6e1cdb0",
    "asympt --n 64 --m 1000 --digits 40 --format markdown": "2e4c1121018de9ed4a46c26b20d4bcc24b81e7f4ce2d1a63f6c30ca3dfcc9552",
}

# SHA-256 of stdout + stderr of `bell ARGS` with COLUMNS=80, and its exit
# code, pinned on Python 3.11 while argparse still parsed every argv: help
# and usage errors must keep every byte. argparse's own wording varies
# between Python versions, so the pins are checked on 3.11 only.
HELP_AND_ERROR_SHA256 = {
    "--help": (0, "f70292b2a492f8bec09cadfb439415416ea23a190a73b7914c9b2efd6aa00071"),
    "table --help": (0, "4887302a32890c98fe2d6e34dbef7dac04247f64fd11637d941ab776776fe531"),
    "value --help": (0, "aa69dcc8345e5cbe6fbdb84c853ed37ababa5148f4c6cc532a40d4d116151634"),
    "poly --help": (0, "1c2ad9bb73c250c1820842465e687f130c10f84b0331fc7ee781a12f0e7a8afc"),
    "asympt --help": (0, "1756c0553abe2546725123c9b0ea4c38137023b2e7be88eb4ddd5f3c0d6cdd7c"),
    "selfcheck --help": (0, "6008dd17078b9689f29fa65837fc3704454204f40c59b8a0e160be5580508982"),
    "frobnicate": (2, "62fb8925e254ba4007c8c7e0ef500eb322b5771f6ba81031688cfb6e627d431d"),
    "value --n 3 --m 2 --method float64":
        (2, "0a7b28c13cbdd4440800827eb0962fa48a10422cc592521f45b1c1087702c6c5"),
    "table --n-max 0": (2, "1a18dabfc0f05f773efa57c3b59f0825c8e37e85356f946910d319d3632bb509"),
    "table --m-max -2": (2, "1a18dabfc0f05f773efa57c3b59f0825c8e37e85356f946910d319d3632bb509"),
    "value --n -1 --m 2": (2, "9945adaff5df4bbaae934ac13b8a9e24d77ef56578ce32befe89d9a24ca25925"),
    "asympt --n 3 --m 0": (2, "94a0ac969848692953a1601b5ac797c94f92c28b7b9b8175e88143c4699353ed"),
    "asympt --n 3 --m 5 --digits -1":
        (2, "459045c2b2bf25903aae6354e904341a49e5d17173abaabb0f38dd0a5188b9c4"),
    "poly": (2, "81af06a4c4f137bfb50ee929b4ac1551b016e164d81f10c8789c943ab89e750f"),
    "": (2, "c25be32f7a12d0dd58d7190c1916bec5ef63d1d70d891e239673ad1a3154cae8"),
    "value --n x --m 1": (2, "039db5fa56317e665be8e4e3c8e0cdece2d9439f1d2eb8e9fdd08129015adb8c"),
    "value --n 3 --m 2 extra": (2, "99074f31e14d6c96cef7c3c29f1cbd716d610376d57ee9aef6ad5dcd025d6a38"),
    "value --n 64 --m 119 --method egf":
        (2, "858cbeaf642c7345ca589dda8d6593eef2c77f1ef0af5f95f397dbe294ebaac1"),
    "table --n-max 10 --m-max 10001":
        (2, "736371e3f2235eda437055416ad491fb4bf12c455cbb9af4efddeaee032001ce"),
    "poly --n 0": (2, "d6c9a5f259dc371406d647ee23a6839a06c893bfb105be913e1723c79f68de8d"),
}

SRC = str(Path(bellpoly.__file__).parent.parent)


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


class TestInterrupt:
    """An interrupted run exits 130 with one stderr line, as from SIGINT, and no traceback."""

    @staticmethod
    def interrupt(*args):
        raise KeyboardInterrupt

    def test_interrupted_request(self, monkeypatch, capsys):
        monkeypatch.setattr(bellpoly.cli, "render_value", self.interrupt)
        assert main(["value", "--n", "3", "--m", "2"]) == 130
        assert capsys.readouterr() == ("", "bell: interrupted\n")

    def test_interrupted_selfcheck(self, monkeypatch, capsys):
        checks = (("interrupted", self.interrupt), *bellpoly.selfcheck.CHECKS)
        monkeypatch.setattr(bellpoly.selfcheck, "CHECKS", checks)
        assert main(["selfcheck"]) == 130
        assert capsys.readouterr() == ("", "bell: interrupted\n")


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
        env = {"PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        loaded = set(proc.stdout.split())
        assert not loaded & {"argparse", "dataclasses", "gettext", "inspect", "json", "typing"}
        layers = ("bell_numbers", "polynomial", "rational_poly", "combinatorics",
                  "rendering", "oracles", "selfcheck", "cli")
        assert {f"bellpoly.{layer}" for layer in layers} <= loaded

    def test_plain_request_never_imports_argparse(self):
        cmd = [sys.executable, "-S", "-X", "importtime", "-m", "bellpoly",
               "value", "--n", "3", "--m", "2"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env={"PYTHONPATH": SRC},
                              check=True)
        assert proc.stdout == "12\n"
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "bellpoly.cli" in imported
        assert not imported & {"argparse", "gettext"}


def argparse_outcome(argv):
    """("ok", vars of argparse's namespace) or ("exit", code, stdout + stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return ("ok", vars(bellpoly.cli._build_parser().parse_args(argv)))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue() + err.getvalue())


OPTION_NAMES = sorted({name for _, options in bellpoly.cli.COMMANDS.values()
                       for name, *_ in options})
NEAR_MISSES = st.one_of(
    st.sampled_from([*OPTION_NAMES, "--n", "--m", "--form", "--meth", "--dig", "--allow", "-n",
                     "-h", "--help", "--", "extra", "", "frobnicate"]),
    st.sampled_from([*FORMATS, *METHODS, "float64", "x", " 7", "+5", "1_0", "-1_0", "-1",
                     "9" * 4301]),
    st.integers(-3, 70).map(str),
    st.builds("{}={}".format, st.sampled_from(OPTION_NAMES), st.sampled_from(["3", "json", "x"])),
)


@st.composite
def argvs(draw):
    """A command and its options in any order, some repeated and some with bad values,
    then up to two edits: a near miss inserted or swapped in, or a token dropped."""
    command = draw(st.sampled_from([*bellpoly.cli.COMMANDS, "frobnicate"]))
    pairs = []
    for name, kind, default, _ in bellpoly.cli.COMMANDS.get(command, ("", ()))[1]:
        for _ in range(draw(st.integers(int(default is bellpoly.cli.REQUIRED), 2))):
            if kind is bool:
                pairs.append([name])
            else:
                values = st.integers(0, 70).map(str) if kind is int else st.sampled_from(kind)
                pairs.append([name, draw(values if draw(st.integers(0, 5)) else NEAR_MISSES)])
    argv = [command, *(token for pair in draw(st.permutations(pairs)) for token in pair)]
    for _ in range(draw(st.integers(0, 2))):
        i, edit = draw(st.integers(0, len(argv))), draw(st.sampled_from("ird"))
        if edit == "i":
            argv.insert(i, draw(NEAR_MISSES))
        elif i < len(argv) and edit == "r":
            argv[i] = draw(NEAR_MISSES)
        elif i < len(argv):
            del argv[i]
    return argv


class TestArgvParsing:
    @settings(max_examples=400, deadline=None)
    @given(argvs())
    @example([])
    @example(["value", "--n", "-1_0", "--m", "2"])  # int() takes it; argparse reads an option
    def test_plain_parse_agrees_with_argparse(self, argv):
        expected = argparse_outcome(argv)
        plain = bellpoly.cli._parse_plain(argv)
        if plain is not None:
            assert expected == ("ok", vars(plain))
        if expected[0] == "exit":
            out, err = io.StringIO(), io.StringIO()
            with pytest.raises(SystemExit) as exc:
                with redirect_stdout(out), redirect_stderr(err):
                    main(argv)
            assert ("exit", exc.value.code, out.getvalue() + err.getvalue()) == expected

    @pytest.mark.parametrize("argv", [
        ["table"],
        ["value", "--n", "18", "--m", "64", "--method", "egf", "--format", "json"],
        ["poly", "--n", "0", "--allow-zero", "--format", "tsv", "--n", "3"],
        ["asympt", "--n", "3", "--m", "1000", "--digits", "40", "--format", "markdown"],
        ["selfcheck"],
    ])
    def test_plain_argv_is_parsed_without_argparse(self, argv):
        plain = bellpoly.cli._parse_plain(argv)
        assert plain is not None
        assert argparse_outcome(argv) == ("ok", vars(plain))

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned on Python 3.11")
    @pytest.mark.parametrize("args", HELP_AND_ERROR_SHA256)
    def test_help_and_usage_errors_are_byte_identical(self, monkeypatch, args):
        monkeypatch.setenv("COLUMNS", "80")
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(SystemExit) as exc:
            with redirect_stdout(out), redirect_stderr(err):
                main(args.split())
        digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()
        assert (exc.value.code, digest) == HELP_AND_ERROR_SHA256[args]


class TestBrokenPipe:
    """A reader that closes stdout early gets exit 141, as from SIGPIPE, and no traceback."""

    @staticmethod
    def run_until_closed(args, lines_read, unbuffered="1"):
        # Unbuffered by default, so that each selfcheck line reaches the reader on its own.
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen([sys.executable, "-m", "bellpoly", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with proc:
            for _ in range(lines_read):
                assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
        return proc.returncode, err

    def test_stdout_closed_before_the_write(self):
        assert self.run_until_closed(["poly", "--n", "20"], 0) == (141, "")

    def test_stdout_closed_after_the_first_line(self):
        rc, err = self.run_until_closed(["selfcheck"], 1)
        assert rc == 141
        assert "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_stdout_closed_during_a_long_write(self, unbuffered):
        # Several pipe buffers of output: unbuffered, the first raw write
        # is cut short when the reader closes, and the rest must still fail.
        args = ["table", "--n-max", "40", "--m-max", "200"]
        assert self.run_until_closed(args, 1, unbuffered) == (141, "")


class FullStream(io.StringIO):
    """A text stream whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def closed_stream():
    stream = io.StringIO()
    stream.close()
    return stream


@pytest.fixture
def full():
    """/dev/full open for writing: every write to it fails with ENOSPC."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as stream:
        yield stream


class TestClosedStreams:
    """A closed or failing stdout exits 74 with one stderr line and no traceback,
    help included; a closed, failing or None stderr never changes the exit code,
    and costs selfcheck its timings, never its report."""

    @pytest.mark.parametrize("argv", [
        ["value", "--n", "3", "--m", "2"], ["selfcheck"], ["--help"], ["value", "--help"],
    ])
    @pytest.mark.parametrize("stdout, reason", [
        (None, "[Errno 9] Bad file descriptor"),
        (FullStream(), "[Errno 28] No space left on device"),
    ], ids=["closed", "full"])
    def test_unwritable_stdout_exits_74(self, monkeypatch, argv, stdout, reason):
        err = io.StringIO()
        with monkeypatch.context() as patch, redirect_stderr(err):
            patch.setattr(sys, "stdout", stdout)
            rc = main(argv)
        assert (rc, err.getvalue()) == (74, f"bell: cannot write to stdout: {reason}\n")

    @pytest.mark.parametrize("stderr", [None, FullStream()], ids=["closed", "full"])
    def test_selfcheck_report_survives_unwritable_stderr(self, monkeypatch, stderr):
        out = io.StringIO()
        with monkeypatch.context() as patch, redirect_stdout(out):
            patch.setattr(sys, "stderr", stderr)
            rc = main(["selfcheck"])
        report = [f"ok   {name}" for name, _ in bellpoly.selfcheck.CHECKS]
        report.append("selfcheck: all 19 invariants hold")
        assert (rc, out.getvalue().splitlines()) == (0, report)

    @pytest.mark.parametrize("make_stderr", [lambda: None, FullStream, closed_stream],
                             ids=["none", "full", "closed"])
    @pytest.mark.parametrize("fault, code", [(ConsistencyError, 1), (KeyboardInterrupt, 130)],
                             ids=["consistency-error", "interrupt"])
    def test_unwritable_stderr_keeps_the_exit_code(self, monkeypatch, make_stderr, fault, code):
        def fail(*args):
            raise fault("injected")

        out = io.StringIO()
        with monkeypatch.context() as patch, redirect_stdout(out):
            patch.setattr(sys, "stderr", make_stderr())
            patch.setattr(bellpoly.cli, "render_value", fail)
            rc = main(["value", "--n", "3", "--m", "2"])
        assert (rc, out.getvalue()) == (code, "")

    @staticmethod
    def run_bell(argv, unbuffered, prelude="", **streams):
        """`bell ARGV` in a fresh interpreter, run after PRELUDE, through its exit."""
        code = f"import sys, bellpoly.cli\n{prelude}\nsys.exit(bellpoly.cli.main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
        return subprocess.run([sys.executable, "-c", code, *argv], env=env, text=True, **streams)

    # Buffered, the bytes a failed write leaves behind would fail the
    # interpreter's final flush (exit 120); unbuffered, argparse drops a
    # failed write of the help.
    UNBUFFERED = pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])

    @UNBUFFERED
    @pytest.mark.parametrize("args", ["value --n 3 --m 2", "--help", "value --help"])
    def test_full_stdout_exits_74_at_process_exit(self, full, args, unbuffered):
        proc = self.run_bell(args.split(), unbuffered, stdout=full, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (
            74, "bell: cannot write to stdout: [Errno 28] No space left on device\n"
        )

    @UNBUFFERED
    def test_full_stdout_and_stderr_exit_74(self, full, unbuffered):
        argv = ["value", "--n", "3", "--m", "2"]
        assert self.run_bell(argv, unbuffered, stdout=full, stderr=full).returncode == 74

    @UNBUFFERED
    @pytest.mark.parametrize("args", ["frobnicate", "table --n-max 0"])
    def test_usage_error_with_full_stderr_exits_2(self, full, args, unbuffered):
        proc = self.run_bell(args.split(), unbuffered, stdout=subprocess.PIPE, stderr=full)
        assert (proc.returncode, proc.stdout) == (2, "")

    @UNBUFFERED
    def test_interrupt_with_full_stderr_exits_130(self, full, unbuffered):
        prelude = ("def interrupt(*args):\n    raise KeyboardInterrupt\n"
                   "bellpoly.cli.render_value = interrupt")
        proc = self.run_bell(["value", "--n", "3", "--m", "2"], unbuffered, prelude,
                             stdout=subprocess.DEVNULL, stderr=full)
        assert proc.returncode == 130

    @UNBUFFERED
    def test_selfcheck_with_full_stderr_exits_0(self, full, unbuffered):
        proc = self.run_bell(["selfcheck"], unbuffered, stdout=subprocess.PIPE, stderr=full)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "selfcheck: all 19 invariants hold"


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

    def test_selfcheck_times_each_check_on_stderr(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run_selfcheck() == 0
        assert all(line.startswith("ok   ") for line in out.getvalue().splitlines()[:-1])
        timed = [re.fullmatch(r" *\d+\.\d ms  (.+)", line) for line in err.getvalue().splitlines()]
        assert all(timed)
        assert [match[1] for match in timed] == [name for name, _ in bellpoly.selfcheck.CHECKS]

    @pytest.mark.parametrize("args", OUTPUT_SHA256)
    def test_output_matches_pinned_hash(self, args):
        rc, out = run_cli(args.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[args]


def readme_cli_examples():
    """Each `$ bell ...` line of README's CLI block, with the lines under it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [chunk.splitlines() for chunk in block.strip().split("\n\n")]
    return [pytest.param(command, output, id=command) for command, *output in examples]


@pytest.mark.parametrize("command, expected", readme_cli_examples())
def test_readme_cli_transcript(command, expected):
    assert command.startswith("$ bell ")
    rc, out = run_cli(command.split()[2:])
    assert rc == 0
    lines = out.splitlines()
    if "..." in expected:  # elided output: only its first and last lines are shown
        assert [lines[0], lines[-1]] == [expected[0], expected[-1]]
    else:
        assert lines == expected


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
            with redirect_stdout(out):
                rc = run_selfcheck()
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

    def test_corrupted_egf_iterate_fails_the_first_difference_check(self, monkeypatch):
        real = bellpoly.selfcheck.egf_iterate

        def corrupted(series):  # B(5, m) one too large
            coeffs = list(real(series).coeffs)
            coeffs[5] += Fraction(1, 120)
            return bellpoly.TruncatedEGF(coeffs)

        monkeypatch.setattr(bellpoly.selfcheck, "egf_iterate", corrupted)
        check = dict(bellpoly.selfcheck.CHECKS)["bell first-difference identity"]
        with pytest.raises(bellpoly.selfcheck.CheckFailure, match="at n = 5, m = 1"):
            check()

    def test_denominator_not_dividing_factorial_fails_the_shape_check(self, monkeypatch):
        # degree 2 and constant term 1 as B_3 has, but a denominator of 7
        # does not divide 2!, so the coefficients are no integer
        # combination of C(m, 0), C(m, 1), C(m, 2)
        real = bellpoly.selfcheck.construct_bell_polynomial
        fake = bellpoly.polynomial.BellPolynomial(3, RationalPolynomial([1, 1, Fraction(3, 7)]))
        assert fake.poly.denominator == 7
        monkeypatch.setattr(
            bellpoly.selfcheck, "construct_bell_polynomial", lambda n: fake if n == 3 else real(n)
        )
        checks = dict(bellpoly.selfcheck.CHECKS)
        check = checks["bell polynomial shape (degree, constant term, rational coefficients)"]
        with pytest.raises(bellpoly.selfcheck.CheckFailure, match="at n = 3"):
            check()
