"""The `bell` command line tool.

Subcommands: table, value, poly, asympt, selfcheck. Exit code 0 on
success, 1 when a selfcheck invariant or an internal cross-check fails,
2 on usage errors (argparse's convention), which include inputs past
the work limits below, 130 (128 + SIGINT) with one `bell: interrupted`
line on stderr when interrupted, and 141 (128 + SIGPIPE) when the
reader closes stdout early, buffered or not.

Every option is declared once, in `COMMANDS`. A plain argv (a command,
then exact long options each with a valid value) is read straight from
that table; argparse is imported and built only for the rest: help,
usage errors, and the spellings only it accepts.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .polynomial import ConsistencyError
from .rendering import (
    FORMATS,
    METHODS,
    render_asympt,
    render_poly,
    render_table,
    render_value,
    resolve_method,
)
from .selfcheck import run_selfcheck

# Work limits: the largest input of each kind finishes in seconds, and
# anything past a limit is refused before any work starts.
MAX_N = 64  # n of value, poly and asympt, and table's --n-max
MAX_RECURSION_CELLS = 100_000  # n * m on the recursion route and in a table
MAX_EGF_WORK = 500_000  # (n+1)^2 * m on the EGF route: m steps of about (n+1)^2 terms
MAX_DIGITS = 100_000  # asympt --digits

REQUIRED = None  # the default of an option that must be given

# command -> (help, options in --help order). An option is (name, kind,
# default, help): kind is int, a tuple of choices, or bool for a flag.
COMMANDS = {
    "table": ("grid of B(n, m) values", (
        ("--n-max", int, 8, "largest n (default 8)"),
        ("--m-max", int, 5, "largest m (default 5)"),
        ("--format", FORMATS, "tsv", None),
    )),
    "value": ("a single B(n, m)", (
        ("--n", int, REQUIRED, None),
        ("--m", int, REQUIRED, None),
        ("--method", METHODS, "auto", None),
        ("--format", FORMATS, "tsv", None),
    )),
    "poly": ("coefficients of B_n as a polynomial in m", (
        ("--n", int, REQUIRED, None),
        ("--format", FORMATS, "json", None),
        ("--allow-zero", bool, False, "accept n = 0 and report the constant polynomial 1"),
    )),
    "asympt": ("exact value next to its leading term", (
        ("--n", int, REQUIRED, None),
        ("--m", int, REQUIRED, None),
        ("--digits", int, 6, "decimal places (default 6)"),
        ("--format", FORMATS, "tsv", None),
    )),
    "selfcheck": ("re-verify every library invariant", ()),
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="bell",
        description="Exact iterated-exponential Bell numbers: "
        "tables, single values, polynomial coefficients, asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        for name, kind, default, text in options:
            if kind is bool:
                spec = {"action": "store_true"}
            elif kind is int:
                spec = {"type": int}
            else:
                spec = {"choices": kind}
            if default is REQUIRED:
                spec["required"] = True
            else:
                spec["default"] = default
            cmd.add_argument(name, help=text, **spec)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a plain argv, else None.

    Plain means a command, then exact long option names, each but a flag
    followed by a value that does not start with "-" and passes the
    int() or choices test argparse applies. A repeated option keeps its
    last value. Anything else (help, abbreviations, --opt=value, negative
    or invalid values, unknown tokens) is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {name: (kind, default) for name, kind, default, _ in COMMANDS[argv[0]][1]}
    given = {}
    tokens = iter(argv[1:])
    for name in tokens:
        if name not in options:
            return None
        kind = options[name][0]
        if kind is bool:
            given[name] = True
            continue
        value = next(tokens, "-")  # a missing value fails like an option in its place
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in kind:
            return None
        given[name] = value
    args = {"command": argv[0]}
    for name, (_, default) in options.items():
        value = given.get(name, default)
        if value is REQUIRED:
            return None
        args[name[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def _usage_error(message: str):
    """Exit 2 with the top-level usage line and `bell: error: <message>`."""
    _build_parser().error(message)


def _answer(args) -> int:
    """Check the work limits, then write the answer to one request."""
    # Exact answers may pass the int-to-str digit limit; Python 3.10.0-3.10.6
    # have neither the limit nor the setter.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.command == "table":
            if args.n_max < 1 or args.m_max < 1:
                _usage_error("--n-max and --m-max must be at least 1")
            if args.n_max > MAX_N:
                _usage_error(f"--n-max must be at most {MAX_N}")
            if args.n_max * args.m_max > MAX_RECURSION_CELLS:
                _usage_error(f"--n-max times --m-max must be at most {MAX_RECURSION_CELLS}")
            text = render_table(args.n_max, args.m_max, args.format)
        elif args.command == "value":
            if args.n < 0 or args.m < 0:
                _usage_error("--n and --m must be non-negative")
            if args.n > MAX_N:
                _usage_error(f"--n must be at most {MAX_N}")
            route = resolve_method(args.m, args.method)
            egf_m_max = MAX_EGF_WORK // (args.n + 1) ** 2
            if route == "egf" and args.m > egf_m_max:
                _usage_error(f"--m must be at most {egf_m_max} on the egf route at --n {args.n}")
            if route == "recursion" and args.n * args.m > MAX_RECURSION_CELLS:
                _usage_error(
                    f"--n times --m must be at most {MAX_RECURSION_CELLS} on the recursion route"
                )
            text = render_value(args.n, args.m, args.method, args.format)
        elif args.command == "poly":
            if args.n < 0 or (args.n == 0 and not args.allow_zero):
                _usage_error("--n must be at least 1 (or pass --allow-zero for n = 0)")
            if args.n > MAX_N:
                _usage_error(f"--n must be at most {MAX_N}")
            text = render_poly(args.n, args.format)
        else:
            if args.n < 1 or args.m < 1:
                _usage_error("--n and --m must be at least 1")
            if args.n > MAX_N:
                _usage_error(f"--n must be at most {MAX_N}")
            if args.digits < 0:
                _usage_error("--digits must be non-negative")
            if args.digits > MAX_DIGITS:
                _usage_error(f"--digits must be at most {MAX_DIGITS}")
            text = render_asympt(args.n, args.m, args.digits, args.format)
    except ConsistencyError as exc:
        print(f"bell: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)

    out = sys.stdout
    if not hasattr(out, "buffer"):  # a text stream only, as under redirect_stdout(StringIO())
        out.write(text)
        return 0
    # Unbuffered (python -u), a closed pipe cuts one raw write short with
    # no error, so the bytes go out in a loop until a write fails.
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[out.buffer.write(data):]
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        rc = run_selfcheck() if args.command == "selfcheck" else _answer(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except KeyboardInterrupt:
        print("bell: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except OSError:
            pass
        else:
            # The interpreter's final flush would raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
    return rc


if __name__ == "__main__":
    sys.exit(main())
