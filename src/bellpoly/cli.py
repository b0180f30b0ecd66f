"""The `bell` command line tool.

Subcommands: table, value, poly, asympt, selfcheck. Exit code 0 on
success, 1 when a selfcheck invariant or an internal cross-check fails,
2 on usage errors (argparse's convention), which include inputs past
the work limits below.
"""

from __future__ import annotations

import argparse
import sys

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bell",
        description="Exact iterated-exponential Bell numbers: "
        "tables, single values, polynomial coefficients, asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="grid of B(n, m) values")
    table.add_argument("--n-max", type=int, default=8, help="largest n (default 8)")
    table.add_argument("--m-max", type=int, default=5, help="largest m (default 5)")
    table.add_argument("--format", choices=FORMATS, default="tsv")

    value = sub.add_parser("value", help="a single B(n, m)")
    value.add_argument("--n", type=int, required=True)
    value.add_argument("--m", type=int, required=True)
    value.add_argument("--method", choices=METHODS, default="auto")
    value.add_argument("--format", choices=FORMATS, default="tsv")

    poly = sub.add_parser("poly", help="coefficients of B_n as a polynomial in m")
    poly.add_argument("--n", type=int, required=True)
    poly.add_argument("--format", choices=FORMATS, default="json")
    poly.add_argument(
        "--allow-zero",
        action="store_true",
        help="accept n = 0 and report the constant polynomial 1",
    )

    asympt = sub.add_parser("asympt", help="exact value next to its leading term")
    asympt.add_argument("--n", type=int, required=True)
    asympt.add_argument("--m", type=int, required=True)
    asympt.add_argument("--digits", type=int, default=6, help="decimal places (default 6)")
    asympt.add_argument("--format", choices=FORMATS, default="tsv")

    sub.add_parser("selfcheck", help="re-verify every library invariant")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "selfcheck":
        return run_selfcheck()

    # Exact answers may pass the int-to-str digit limit; Python 3.10.0-3.10.6
    # have neither the limit nor the setter.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.command == "table":
            if args.n_max < 1 or args.m_max < 1:
                parser.error("--n-max and --m-max must be at least 1")
            if args.n_max > MAX_N:
                parser.error(f"--n-max must be at most {MAX_N}")
            if args.n_max * args.m_max > MAX_RECURSION_CELLS:
                parser.error(f"--n-max times --m-max must be at most {MAX_RECURSION_CELLS}")
            text = render_table(args.n_max, args.m_max, args.format)
        elif args.command == "value":
            if args.n < 0 or args.m < 0:
                parser.error("--n and --m must be non-negative")
            if args.n > MAX_N:
                parser.error(f"--n must be at most {MAX_N}")
            route = resolve_method(args.m, args.method)
            egf_m_max = MAX_EGF_WORK // (args.n + 1) ** 2
            if route == "egf" and args.m > egf_m_max:
                parser.error(f"--m must be at most {egf_m_max} on the egf route at --n {args.n}")
            if route == "recursion" and args.n * args.m > MAX_RECURSION_CELLS:
                parser.error(
                    f"--n times --m must be at most {MAX_RECURSION_CELLS} on the recursion route"
                )
            text = render_value(args.n, args.m, args.method, args.format)
        elif args.command == "poly":
            if args.n < 0 or (args.n == 0 and not args.allow_zero):
                parser.error("--n must be at least 1 (or pass --allow-zero for n = 0)")
            if args.n > MAX_N:
                parser.error(f"--n must be at most {MAX_N}")
            text = render_poly(args.n, args.format)
        else:
            if args.n < 1 or args.m < 1:
                parser.error("--n and --m must be at least 1")
            if args.n > MAX_N:
                parser.error(f"--n must be at most {MAX_N}")
            if args.digits < 0:
                parser.error("--digits must be non-negative")
            if args.digits > MAX_DIGITS:
                parser.error(f"--digits must be at most {MAX_DIGITS}")
            text = render_asympt(args.n, args.m, args.digits, args.format)
    except ConsistencyError as exc:
        print(f"bell: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)

    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
