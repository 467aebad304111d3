"""Command-line front end: counting, enumeration, statistics, series, verification.

Exit codes: 0 success, 1 verification or capacity failure, 2 usage error.
All output is deterministic for fixed flags, including with
``--parallelism`` above 1 (at most ``os.cpu_count()``).
"""

from __future__ import annotations

import argparse
import json
import sys

from permlab.enumeration import (
    CapacityError,
    PatternBasis,
    check_parallelism,
    class_levels,
    count_class,
    enumerate_simples,
    refined_count,
)
from permlab.perms import ParseError, perm_to_text
from permlab.series import SeriesError, named_series
from permlab.verification import (
    check_ids,
    reports_to_json,
    run_all,
    run_check,
)

OK, FAILURE, USAGE = 0, 1, 2


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _non_negative(text: str) -> int:
    """argparse type for the size budgets --max-n, --count-n and --order."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parallelism(text: str) -> int:
    """argparse type for --parallelism: an int in 1..os.cpu_count()."""
    try:
        return check_parallelism(_int(text))
    except ValueError as exc:  # argparse already names the option
        raise argparse.ArgumentTypeError(str(exc).removeprefix("parallelism ")) from None


def _print_rows(rows, header, fmt):
    if fmt == "table":
        for row in rows:
            print("\t".join(str(v) for v in row))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        print(json.dumps([dict(zip(header, row)) for row in rows], indent=2))


def cmd_count(args) -> int:
    basis = PatternBasis.from_text(args.basis)
    counts = count_class(basis, args.max_n, parallelism=args.parallelism)
    if args.format == "json":
        print(json.dumps(
            {"basis": [perm_to_text(p) for p in basis.patterns], "counts": counts},
            indent=2,
        ))
    else:
        _print_rows(list(enumerate(counts)), ["n", "count"], args.format)
    return OK


def cmd_enumerate(args) -> int:
    basis = PatternBasis.from_text(args.basis)
    levels = class_levels(basis, args.max_n, parallelism=args.parallelism)
    rows = [(n, perm_to_text(p)) for n, lv in enumerate(levels) for p in lv]
    _print_rows(rows, ["n", "perm"], args.format)
    return OK


def cmd_stat(args) -> int:
    basis = PatternBasis.from_text(args.basis)
    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    table = refined_count(
        basis, args.max_n, stats, args.filter, parallelism=args.parallelism
    )
    if args.format == "json":
        print(table.to_json())
    else:
        header = ["n", *table.stat_names, "count"]
        if args.format == "table":
            print("\t".join(header))
        _print_rows([(n, *vals, count) for n, vals, count in table.rows()],
                    header, args.format)
    return OK


def cmd_simples(args) -> int:
    basis = PatternBasis.from_text(args.basis)
    # longest first: that call builds and caches every shorter level
    simples = {
        n: enumerate_simples(basis, n, parallelism=args.parallelism)
        for n in range(args.max_n, -1, -1)
    }
    rows = [(n, perm_to_text(p)) for n in range(args.max_n + 1) for p in simples[n]]
    _print_rows(rows, ["n", "perm"], args.format)
    return OK


def cmd_series(args) -> int:
    s = named_series(args.name, args.order)
    if args.format == "table":
        if not any(k[1] or k[2] for k in s.coeffs):
            print(" ".join(str(c) for c in s.x_coefficients()))
        else:
            print(s.pretty())
    elif args.format == "csv":
        print("x,t,u,coeff")
        for (ex, et, eu), c in s.terms():
            print(f"{ex},{et},{eu},{c}")
    else:
        print(json.dumps(
            {
                "name": args.name,
                "order": s.order,
                "grading": s.grading,
                "terms": [
                    {"x": k[0], "t": k[1], "u": k[2], "coeff": str(c)}
                    for k, c in s.terms()
                ],
            },
            indent=2,
        ))
    return OK


def cmd_verify(args) -> int:
    if args.list_ids:
        for cid in check_ids():
            print(cid)
        return OK
    if args.id:
        reports = [run_check(args.id, args.max_n, args.order, count_n=args.count_n)]
    else:
        reports = run_all(args.max_n, args.order, count_n=args.count_n)
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        for r in reports:
            line = f"{r.check_id:32s} {r.status:4s} [{r.elapsed_ms:9.1f} ms]"
            print(line)
            for p, reason in r.witnesses[:5]:
                print(f"    witness {perm_to_text(p) or '-'}: {reason}")
    return OK if all(r.passed for r in reports) else FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="pattern-avoidance enumeration and exact series verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, basis=True):
        if basis:
            p.add_argument("--basis", required=True,
                           help="comma-separated digit-string patterns, e.g. 2143,3142")
        p.add_argument("--max-n", type=_non_negative, default=8)
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")
        p.add_argument("--parallelism", type=_parallelism, default=1,
                       help="worker processes, 1..CPU count (default 1)")

    p_count = sub.add_parser("count", help="count a class by length")
    common(p_count)
    p_count.set_defaults(fn=cmd_count)

    p_enum = sub.add_parser("enumerate", help="list class members by length")
    common(p_enum)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_stat = sub.add_parser("stat", help="refined counts by statistics")
    common(p_stat)
    p_stat.add_argument("--stats", required=True,
                        help="comma-separated ids from: leading-maxima, bond, lr-min")
    p_stat.add_argument("--filter", default="none",
                        help="element filter id (see docs; default none)")
    p_stat.set_defaults(fn=cmd_stat)

    p_simp = sub.add_parser("simples", help="list simple class members")
    common(p_simp)
    p_simp.set_defaults(fn=cmd_simples)

    p_ser = sub.add_parser("series", help="print a registered series")
    p_ser.add_argument("--name", required=True,
                       help="registered series name (see README)")
    p_ser.add_argument("--order", type=_non_negative, default=12)
    p_ser.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_ser.set_defaults(fn=cmd_series)

    p_ver = sub.add_parser("verify", help="run structural checks and identities")
    p_ver.add_argument("--all", action="store_true",
                       help="run the whole registry (default when no --id)")
    p_ver.add_argument("--id", default=None, help="run a single check by id")
    p_ver.add_argument("--list-ids", action="store_true")
    p_ver.add_argument("--max-n", type=_non_negative, default=8)
    p_ver.add_argument("--order", type=_non_negative, default=12)
    p_ver.add_argument("--count-n", type=_non_negative, default=10)
    p_ver.add_argument("--format", choices=["table", "json"], default="table")
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    except (ParseError, SeriesError, KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
