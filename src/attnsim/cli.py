"""Command-line front end: run one model, compare both, classify a corpus.

Reports go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 2 usage or transcript parse error, 3 unreadable
input file, unwritable trace file or standard output that cannot be
written, 1 internal error.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys

from .driver import (
    DEFAULT_CAPACITY,
    DEFAULT_RETRIEVAL_COST,
    InputError,
    ModelKind,
    OutputError,
    compare,
    divergence_report_json,
    pops,
    pops_report_json,
    run,
    simulation_report_json,
)
from .transcript_io import ParseError


def _positive(value: str, message: str) -> int:
    try:
        count = int(value)
    except ValueError:  # argparse would name this function instead
        raise argparse.ArgumentTypeError(message) from None
    if count < 1:
        raise argparse.ArgumentTypeError(message)
    return count


def _capacity(value: str) -> int | None:
    if value == "inf":
        return None
    return _positive(value, "capacity must be positive or 'inf'")


def _cost(value: str) -> int:
    return _positive(value, "retrieval cost must be at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnsim",
        description="Replay annotated dialogues through attentional-state models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one model over a transcript")
    run_p.add_argument("--model", choices=["stack", "cache"], required=True)
    run_p.add_argument("--capacity", type=_capacity, default=DEFAULT_CAPACITY)
    run_p.add_argument("--cost", type=_cost, default=DEFAULT_RETRIEVAL_COST)
    run_p.add_argument("--trace", metavar="PATH", default=None)
    run_p.add_argument("file")

    compare_p = sub.add_parser("compare", help="run both models and join outcomes")
    compare_p.add_argument("file")

    pops_p = sub.add_parser("pops", help="classify a return-pop corpus")
    pops_p.add_argument("file")

    return parser


def main(argv: list[str] | None = None) -> int:
    # A command's records hold no reference cycles and reference counting
    # frees them, so the cyclic collector would only rescan a growing heap.
    # An in-process caller gets its own collector state back.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _command(argv)
    finally:
        if enabled:
            gc.enable()


def _command(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report = run(ModelKind(args.model), args.file, args.capacity, args.cost, args.trace)
            payload = simulation_report_json(report)
        elif args.command == "compare":
            payload = divergence_report_json(compare(args.file))
        else:
            payload = pops_report_json(pops(args.file))
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    except InputError as error:
        print(f"input error: {error}", file=sys.stderr)
        return 3
    except OutputError as error:
        print(f"output error: {error}", file=sys.stderr)
        return 3
    except Exception as error:  # noqa: BLE001 - the process boundary
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        if sys.stdout is None:  # descriptor 1 was closed when Python started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(json.dumps(payload, indent=2))
        sys.stdout.flush()
    except OSError as error:
        if sys.stdout is not None:
            # Stdout takes no more bytes. Point it at devnull, as the Python
            # docs advise, so that the flush at exit does not fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"output error: <stdout>: {error.strerror}", file=sys.stderr)
        return 3
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
