"""Command-line entry point: ``alg run`` and ``alg verify``.

``python -m charp`` runs the same ``main`` as the installed ``alg``
script, with the same arguments and exit codes.

Exit codes: 0 all checks pass, 1 at least one assertion/check failed,
2 input error (bad script, bad ring, unknown suite, a script that cannot
be read or is not UTF-8, a --json path that cannot be written, a bad
option).  Every input error is one ``error:`` line on stderr; a bad option
prints no usage block, and an over-long option value is not echoed.
"""

from __future__ import annotations

import argparse
import sys

from .core import AlgebraError
from .script import ScriptError, _shown, run_script
from .suites import (
    SUITE_NAMES,
    UnknownSuite,
    report_exit_code,
    report_to_json,
    verify_suite,
)


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one ``error:`` line, exit 2."""

    def error(self, message):
        _input_error(message)
        raise SystemExit(2)


def _integer(text: str) -> int:
    """The value of an integer option."""
    try:
        return int(text)
    except ValueError:  # not an integer, or past int's max-str-digits limit
        raise argparse.ArgumentTypeError(f"expected an integer, got {_shown(text)}")


def _write_json(report: dict, path: str | None) -> bool:
    """Write the report to ``path`` if one is given; False if that fails."""
    if path:
        text = report_to_json(report)
        if path == "-":
            sys.stdout.write(text)
            return True
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _input_error(f"cannot write the report: {exc}")
            return False
    return True


def _cmd_run(args) -> int:
    try:
        report = run_script(args.file, seed=args.seed)
    except UnicodeDecodeError as exc:
        return _input_error(f"{args.file} is not valid UTF-8 "
                            f"({exc.reason} at byte {exc.start})")
    except (OSError, ScriptError, AlgebraError) as exc:
        return _input_error(exc)
    if not _write_json(report, args.json):
        return 2
    failures = [c for c in report["checks"] if c["status"] == "fail"]
    for c in failures:
        print(f"FAIL: {c['name']}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    params = {
        "seed": args.seed,
        "ring": args.ring,
        "ideal": args.ideal,
        "emax": args.qmax,
        "depth": args.depth,
        "samples": args.samples,
        "tmax": args.tmax,
        "p": args.p,
        "vars": args.vars.split(",") if args.vars else None,
        "mod": args.mod,
    }
    try:
        report = verify_suite(args.suite, params)
    except (UnknownSuite, AlgebraError) as exc:
        return _input_error(exc)
    if not _write_json(report, args.json):
        return 2
    for c in report["checks"]:
        print(f"[{c['status']:4s}] {c['name']}")
    return report_exit_code(report)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="alg",
        description="characteristic-p commutative algebra toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a batch script")
    run.add_argument("file")
    run.add_argument("--json", metavar="OUT",
                     help="write the JSON report to OUT ('-' for stdout)")
    run.add_argument("--seed", type=_integer, default=0)
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("--ring", help="built-in ring name (default fermat2)")
    verify.add_argument("--ideal", help="comma-separated generators")
    verify.add_argument("--qmax", type=_integer, default=None,
                        help="largest Frobenius exponent e (default 3)")
    verify.add_argument("--depth", type=_integer, default=None)
    verify.add_argument("--samples", type=_integer, default=None)
    verify.add_argument("--tmax", type=_integer, default=None)
    verify.add_argument("--seed", type=_integer, default=0)
    verify.add_argument("--json", metavar="OUT",
                        help="write the JSON report to OUT ('-' for stdout)")
    verify.add_argument("--p", type=_integer, help="characteristic (custom ring)")
    verify.add_argument("--vars", help="comma-separated variables (custom ring)")
    verify.add_argument("--mod", help="hypersurface relation (custom ring)")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
