"""Command-line front end: counting, enumeration, statistics, series, verification.

The library returns plain data; this module renders every output.

Exit codes: 0 success, 1 verification or capacity failure, 2 usage error.
All output is deterministic for fixed flags, worker processes included:
only ``count`` starts them, at most ``os.cpu_count()`` in all.
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
from permlab.verification import check_ids, run_all, run_check

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


def _print_json(data) -> None:
    print(json.dumps(data, indent=2))


def _print_rows(rows, header, fmt):
    if fmt == "table":
        for row in rows:
            print("\t".join(str(v) for v in row))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        _print_json([dict(zip(header, row)) for row in rows])


def cmd_count(args) -> int:
    basis = PatternBasis.from_text(args.basis)
    counts = count_class(basis, args.max_n, parallelism=args.parallelism)
    if args.format == "json":
        _print_json({"basis": [perm_to_text(p) for p in basis.patterns], "counts": counts})
    else:
        _print_rows(list(enumerate(counts)), ["n", "count"], args.format)
    return OK


def cmd_enumerate(args) -> int:
    basis = PatternBasis.from_text(args.basis)
    levels = class_levels(basis, args.max_n)
    rows = [(n, perm_to_text(p)) for n, lv in enumerate(levels) for p in lv]
    _print_rows(rows, ["n", "perm"], args.format)
    return OK


def cmd_stat(args) -> int:
    basis = PatternBasis.from_text(args.basis)
    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    counts = refined_count(basis, args.max_n, stats, args.filter)
    header = ["n", *stats, "count"]
    rows = [(n, *values, count) for (n, values), count in sorted(counts.items())]
    if args.format == "json":
        _print_json({"basis": [perm_to_text(p) for p in basis.patterns],
                     "maxLength": args.max_n, "stats": stats, "filter": args.filter,
                     "counts": [dict(zip(header, row)) for row in rows]})
    else:
        if args.format == "table":
            print("\t".join(header))
        _print_rows(rows, header, args.format)
    return OK


def cmd_simples(args) -> int:
    basis = PatternBasis.from_text(args.basis)
    simples = enumerate_simples(basis, args.max_n)
    rows = [(n, perm_to_text(p)) for n, level in enumerate(simples) for p in level]
    _print_rows(rows, ["n", "perm"], args.format)
    return OK


def cmd_series(args) -> int:
    s = named_series(args.name, args.order)
    terms = s.terms()
    if args.format == "table":
        if not any(t or u for (_, t, u), _ in terms):
            print(" ".join(str(c) for c in s.x_coefficients()))
        else:
            for key, c in terms:
                mono = " ".join(f"{v}^{e}" for v, e in zip("xtu", key) if e)
                print(f"{c} * {mono or 1}")
    elif args.format == "csv":
        print("x,t,u,coeff")
        for (ex, et, eu), c in terms:
            print(f"{ex},{et},{eu},{c}")
    else:
        _print_json({"name": args.name, "order": s.order, "grading": s.grading,
                     "terms": [{"x": x, "t": t, "u": u, "coeff": str(c)}
                               for (x, t, u), c in terms]})
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
        _print_json([{"checkId": r.check_id, "maxN": r.max_n, "status": r.status,
                      "witnesses": [{"perm": perm_to_text(p), "reason": reason}
                                    for p, reason in r.witnesses],
                      "elapsedMillis": round(r.elapsed_ms, 3)} for r in reports])
    else:
        for r in reports:
            line = f"{r.check_id:32s} {r.status:4s} [{r.elapsed_ms:9.1f} ms]"
            print(line)
            for p, reason in r.witnesses[:5]:
                print(f"    witness {perm_to_text(p) or '-'}: {reason}")
    return OK if all(r.passed for r in reports) else FAILURE


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with only ``command``'s arguments when it names a subcommand.

    Any other ``command`` (None, an option, a typo) gets every
    subcommand's arguments, so top-level help and errors are complete.
    """
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="pattern-avoidance enumeration and exact series verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--basis", required=True,
                       help="comma-separated digit-string patterns, e.g. 2143,3142")
        p.add_argument("--max-n", type=_non_negative, default=8)
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")

    def count(p):
        common(p)
        p.add_argument("--parallelism", type=_parallelism, default=1,
                       help="worker processes, 1..CPU count (default 1)")

    def stat(p):
        common(p)
        p.add_argument("--stats", required=True,
                       help="comma-separated ids from: leading-maxima, bond, lr-min")
        p.add_argument("--filter", default="none",
                       help="element filter id (see docs; default none)")

    def series(p):
        p.add_argument("--name", required=True, help="registered series name (see README)")
        p.add_argument("--order", type=_non_negative, default=12)
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")

    def verify(p):
        only = p.add_mutually_exclusive_group()
        only.add_argument("--all", action="store_true",
                          help="run the whole registry (default when no --id)")
        only.add_argument("--id", default=None, help="run a single check by id")
        only.add_argument("--list-ids", action="store_true")
        p.add_argument("--max-n", type=_non_negative, default=8)
        p.add_argument("--order", type=_non_negative, default=12)
        p.add_argument("--count-n", type=_non_negative, default=10)
        p.add_argument("--format", choices=["table", "json"], default="table")

    commands = {
        "count": ("count a class by length", cmd_count, count),
        "enumerate": ("list class members by length", cmd_enumerate, common),
        "stat": ("refined counts by statistics", cmd_stat, stat),
        "simples": ("list simple class members", cmd_simples, common),
        "series": ("print a registered series", cmd_series, series),
        "verify": ("run structural checks and identities", cmd_verify, verify),
    }
    for name, (text, fn, arguments) in commands.items():
        p = sub.add_parser(name, help=text)
        if command not in commands or command == name:
            arguments(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
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
