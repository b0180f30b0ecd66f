"""Mutation runner: which small faults in one module does nothing catch?

Copies src/bellpoly to a temporary directory and mutates one named
module there, one mutant at a time. A mutant flips one comparison
operator (< to <=, == to !=, in to not in, ...) or moves one integer
constant by +1 or -1. Each mutant runs `python -m bellpoly selfcheck`,
then pytest on the named test files, against the copy: one child
process at a time, each under a timeout. A mutant that fails, crashes
or times out is killed; one that passes both survives, and is printed
as file:line and its mutation. Each pytest run draws its hypothesis
examples from one fixed seed and starts from an empty example
database, so two runs of the tool print the same survivors.

    python tools/mutants.py polynomial tests/test_polynomial.py
    python tools/mutants.py combinatorics tests/test_combinatorics.py tests/test_input_guards.py

Standard library only (`ast`); the tests need pytest. It is not a
tier-1 test: a module takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bellpoly"
TIMEOUT = 60  # seconds per child process; the slowest test file takes a few
SEED = 0  # --hypothesis-seed of every pytest run

FLIPS = {
    ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
    ast.Is: "is not", ast.IsNot: "is", ast.In: "not in", ast.NotIn: "in",
}
OPERATOR = re.compile(rb"<=|>=|==|!=|<|>|\bis\s+not\b|\bnot\s+in\b|\bis\b|\bin\b")


def mutants(source: bytes):
    """Yield (line, description, mutated source) for every mutant of `source`."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    edits = []  # (start, end, replacement, description)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            text = source[start:end]
            if re.fullmatch(rb"[0-9_]+", text) and int(text) == node.value:
                for step in (1, -1):
                    new = str(node.value + step).encode()
                    edits.append((start, end, new, f"{node.value} -> {node.value + step}"))
        elif isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                lo = offset(left.end_lineno, left.end_col_offset)
                hi = offset(right.lineno, right.col_offset)
                found = OPERATOR.search(source, lo, hi)
                if found:
                    new = FLIPS[type(op)].encode()
                    old = b" ".join(found.group().split()).decode()
                    edits.append((found.start(), found.end(), new, f"{old} -> {new.decode()}"))
                left = right
    for start, end, new, description in sorted(edits):
        mutated = source[:start] + new + source[end:]
        try:
            compile(mutated, "<mutant>", "exec")
        except SyntaxError:
            continue
        yield source.count(b"\n", 0, start) + 1, description, mutated


def passes(command: list[str], env: dict[str, str]) -> bool:
    """Whether `command` exits 0 within TIMEOUT seconds."""
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module of src/bellpoly to mutate, as polynomial")
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    args = parser.parse_args(argv)
    original = (PACKAGE / f"{args.module}.py").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "bellpoly"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / f"{args.module}.py"
        # No bytecode is written: a mutant of the same size written within
        # the same second would otherwise run from the last one's .pyc.
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        selfcheck = [sys.executable, "-m", "bellpoly", "selfcheck"]
        tests = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--hypothesis-seed={SEED}", *args.tests,
        ]

        def survives() -> bool:
            if not passes(selfcheck, env):
                return False
            # A fresh example database: a failing example that an earlier
            # mutant's run saved is never replayed against this one.
            with tempfile.TemporaryDirectory() as storage:
                return passes(tests, dict(env, HYPOTHESIS_STORAGE_DIRECTORY=storage))

        if not survives():
            print("the unmutated copy fails its checks; nothing to compare", file=sys.stderr)
            return 2
        total = survived = 0
        for line, description, mutated in mutants(original):
            target.write_bytes(mutated)
            total += 1
            if survives():
                survived += 1
                print(f"src/bellpoly/{args.module}.py:{line}: {description}", flush=True)
        target.write_bytes(original)
    print(f"{args.module}: {survived} of {total} mutants survived", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
