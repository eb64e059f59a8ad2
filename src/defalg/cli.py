"""Command line interface.

Exit codes: 0 on success, 1 for invalid input (with a location), 2 when
an enumeration budget is exceeded (an oracle scan over budget is
skipped and the rest of the report still printed), 3 when an oracle
cross-check or an expected value disagrees with the computed answer.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__, corpus
from .budget import BudgetExceeded
from .problems import ParseError, ProblemFileError, load_problem_file
from .reports import Report, RunOptions, run_problem_set

_KIND_HELP = {
    "tmods": "cohomology of the presentation: dimensions of T0, T1 and T2",
    "exal": "classify square-zero extensions by a module",
    "lift": "lift an algebra map through a square-zero quotient",
    "deform": "deform an algebra across a square-zero base extension",
}


def _add_common(sp: argparse.ArgumentParser, with_file: bool = True) -> None:
    if with_file:
        sp.add_argument("file", help="JSON problem file")
    sp.add_argument("--json", action="store_true", help="emit the report as JSON")
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check each answer against exhaustive enumeration",
    )
    sp.add_argument("--truncate", metavar="D", help="override the truncation degree (at least 1)")
    sp.add_argument("--budget", metavar="N", help="enumeration budget (candidate tables, at least 1)")
    sp.add_argument("--field", metavar="NAME", help="override the coefficient field (F2, F3, Q, ...)")
    sp.add_argument("--seed", metavar="N", help="seed for the independent second lift")


# the integer flags: name -> (least value, what is expected)
_INT_FLAGS = {"truncate": (1, "a degree >= 1"), "budget": (1, "a positive integer"), "seed": (None, "an integer")}


def _int_flags(args: argparse.Namespace) -> Optional[str]:
    """Turn the integer flags given into ints, in place; the message for
    the first that is not a valid value, or None."""
    for name, (least, what) in _INT_FLAGS.items():
        raw = value = getattr(args, name)
        if raw is None:
            continue
        try:
            value = int(raw)
        except ValueError:
            pass
        if type(value) is not int or least is not None and value < least:
            return f"--{name}: expected {what}, got {value!r}"
        setattr(args, name, value)
    return None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defalg",
        description="deformation invariants of finitely presented algebras, exactly",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for kind, doc in _KIND_HELP.items():
        _add_common(sub.add_parser(kind, help=doc))
    _add_common(
        sub.add_parser("oracle", help="run every problem in the file with oracle cross-checks")
    )
    cp = sub.add_parser("corpus", help="run a built-in validation suite")
    cp.add_argument("suite", nargs="?", help="suite name; see --list")
    cp.add_argument("--list", action="store_true", help="list the available suites")
    _add_common(cp, with_file=False)
    return ap


def _emit(report: Report, as_json: bool) -> int:
    print(report.to_json() if as_json else report.render_text())
    for e in report.over_budget:
        orc = e["oracle"]
        print(
            f"budget exceeded: problem {e['name']}: oracle needs {orc['needed']} candidates, budget is {orc['limit']}",
            file=sys.stderr,
        )
    return report.exit_code()


def _options(args: argparse.Namespace, force_oracle: bool = False) -> RunOptions:
    return RunOptions(
        oracle=bool(args.oracle) or force_oracle,
        budget=args.budget,
        seed=args.seed,
        truncate=args.truncate,
    )


def _cmd_file(args: argparse.Namespace) -> int:
    ps = load_problem_file(args.file, field=args.field, truncate=args.truncate, seed=args.seed)
    oracle_all = args.command == "oracle"
    kinds = None if oracle_all else (args.command,)
    report = run_problem_set(ps, _options(args, force_oracle=oracle_all), kinds=kinds)
    return _emit(report, args.json)


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.list:
        for name in corpus.suite_names():
            print(f"{name:16} {corpus.describe(name)}")
        return 0
    if args.suite is None:
        print("choose a suite (see defalg corpus --list)", file=sys.stderr)
        return 1
    if args.suite not in corpus.suite_names():
        print(f"unknown suite {args.suite!r} (see defalg corpus --list)", file=sys.stderr)
        return 1
    report = corpus.run_suite(args.suite, field=args.field, opts=_options(args))
    return _emit(report, args.json)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    bad = _int_flags(args)
    if bad is not None:
        print(f"error: {bad}", file=sys.stderr)
        return 1
    try:
        if args.command == "corpus":
            return _cmd_corpus(args)
        return _cmd_file(args)
    except (ProblemFileError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
