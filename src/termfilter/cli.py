"""Command-line interface.

Exit codes: 0 termination proved, 1 no proof found, 2 timeout, 3 error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .prover import Maybe, ProverConfig, Terminating, prove, render_proof
from .tpdb import ParseError, parse_trs


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # "-inf" and "-nan" are values for ``seconds``, as "-1" is, not options
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.I)

    def error(self, message: str):
        # argparse exits 2, which is the timeout code here
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def seconds(text: str) -> float:
    """A ``--timeout`` value: finite and non-negative (no deadline check ever
    trips on NaN, and an infinite deadline is no deadline, which leaving
    ``--timeout`` out already asks for)."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"not a finite non-negative number: {text!r}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="termfilter",
        description="Termination prover for term rewrite systems based on "
                    "lexicographic path orders with argument filterings, "
                    "searched for by a single SAT call per pair problem.")
    parser.add_argument("file", help="rewrite system in the legacy .trs format")
    parser.add_argument("--order", choices=["lpo", "qlpo"], default="lpo",
                        help="strict or quasi precedence search (default: lpo)")
    parser.add_argument("--processor", choices=["thm5", "thm12"], default="thm12",
                        help="usable rules: thm5 = classical closure, "
                             "thm12 = filtered, chosen by the solver (default)")
    parser.add_argument("--timeout", type=seconds, default=None, metavar="SECONDS")
    parser.add_argument("--emit-dimacs", default=None, metavar="DIR",
                        help="write every CNF plus a variable manifest to DIR")
    parser.add_argument("--proof", action="store_true", help="print the proof steps")
    parser.add_argument("--dump-formula", action="store_true",
                        help="print each constraint formula as an s-expression DAG")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        trs = parse_trs(Path(args.file).read_bytes().decode("utf-8"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnicodeDecodeError, ParseError) as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 3

    config = ProverConfig(
        mode="quasi" if args.order == "qlpo" else "strict",
        processor=args.processor,
        timeout=args.timeout,
        emit_dimacs=args.emit_dimacs,
        dump_formula=args.dump_formula,
    )
    try:
        verdict = prove(trs, config)
    except Exception as exc:  # solver/verification failures are exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if not args.proof:  # only the verdict line that ends every proof
        verdict = Maybe(verdict.reason) if isinstance(verdict, Maybe) else type(verdict)(())
    print(render_proof(verdict))
    if isinstance(verdict, Terminating):
        return 0
    if isinstance(verdict, Maybe):
        return 1
    return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
