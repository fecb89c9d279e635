"""Command-line front end: run one model, compare both, classify a corpus.

Reports go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 2 usage or transcript parse error, 3 unreadable
input file, unwritable trace file or standard output that cannot be
written, 1 internal error.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    import argparse


class _Report(json.JSONEncoder):
    """Returns the text of a report, which its writer in ``driver`` has
    laid out already, as it is. Reports still pass through this module's
    ``json.dumps``, because ``bench/tracer.py`` times stdout encoding by
    wrapping that name (its ``cli.json_dumps`` layer)."""

    def encode(self, o: str) -> str:
        return o


def build_parser() -> argparse.ArgumentParser:
    # Imported here: a canonical call (``read_canonical``) never loads
    # argparse, nor the gettext and locale modules it imports.
    import argparse

    def positive(value: str, message: str) -> int:
        try:
            count = int(value)
        except ValueError:  # argparse would name this function instead
            raise argparse.ArgumentTypeError(message) from None
        if count < 1:
            raise argparse.ArgumentTypeError(message)
        return count

    def capacity(value: str) -> int | None:
        if value == "inf":
            return None
        return positive(value, "capacity must be positive or 'inf'")

    def cost(value: str) -> int:
        return positive(value, "retrieval cost must be at least 1")

    parser = argparse.ArgumentParser(
        prog="attnsim",
        description="Replay annotated dialogues through attentional-state models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one model over a transcript")
    run_p.add_argument("--model", choices=["stack", "cache"], required=True)
    run_p.add_argument("--capacity", type=capacity, default=DEFAULT_CAPACITY)
    run_p.add_argument("--cost", type=cost, default=DEFAULT_RETRIEVAL_COST)
    run_p.add_argument("--trace", metavar="PATH", default=None)
    run_p.add_argument("file")

    compare_p = sub.add_parser("compare", help="run both models and join outcomes")
    compare_p.add_argument("file")

    pops_p = sub.add_parser("pops", help="classify a return-pop corpus")
    pops_p.add_argument("file")

    return parser


# ``run``'s options, by full name, and the keys they set.
_RUN_OPTIONS = {"--model": "model", "--capacity": "capacity", "--cost": "cost", "--trace": "trace"}


def read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The arguments ``build_parser().parse_args(argv)`` reads, with the
    same attributes and values, when ``argv`` is canonical: a command,
    then, in any order, full option names each followed by a value that
    does not start with ``-``, and exactly one file. Anything else, and
    any value this is not sure of, gives None, so that argparse reads it
    and writes its own help or usage error."""

    if not argv or argv[0] not in ("run", "compare", "pops"):
        return None
    args: dict = {"command": argv[0]}
    if argv[0] == "run":
        args.update(model=None, capacity=DEFAULT_CAPACITY, cost=DEFAULT_RETRIEVAL_COST, trace=None)
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if "file" in args:
                return None
            args["file"] = word
            continue
        key = _RUN_OPTIONS.get(word)
        value = next(words, "-")
        if key not in args or value.startswith("-"):
            return None
        if key == "model":
            if value not in ("stack", "cache"):
                return None
        elif key == "capacity" and value == "inf":
            value = None
        elif key != "trace":
            # At most nine plain ASCII digits, naming at least 1: int() also
            # reads signs, spaces, underscores and other scripts' digits,
            # and a count below 1 is argparse's usage error.
            if not (value.isascii() and value.isdigit() and len(value) < 10 and int(value)):
                return None
            value = int(value)
        args[key] = value
    if "file" not in args or argv[0] == "run" and args["model"] is None:
        return None
    return SimpleNamespace(**args)


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
    if argv is None:
        argv = sys.argv[1:]
    args = read_canonical(argv) or build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report = run(ModelKind(args.model), args.file, args.capacity, args.cost, args.trace)
            text = simulation_report_json(report)
        elif args.command == "compare":
            text = divergence_report_json(compare(args.file))
        else:
            text = pops_report_json(pops(args.file))
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
        print(json.dumps(text, cls=_Report))
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
    code = main()
    # The collection at interpreter exit would walk every object left, the
    # modules too, and free nothing, as command data holds no cycles.
    # Frozen objects are outside every generation it walks. Exit still
    # flushes stdout and stderr.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
