"""Command-line front end: run one model, compare both, classify a corpus.

Reports go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 2 usage or transcript parse error, 3 unreadable
input file, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .driver import (
    InputError,
    ModelKind,
    RunConfig,
    compare,
    divergence_report_json,
    pops,
    pops_report_json,
    run,
    simulation_report_json,
)
from .transcript_io import ParseError


def _capacity(value: str) -> int | None:
    if value == "inf":
        return None
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("capacity must be positive or 'inf'")
    return count


def _cost(value: str) -> int:
    cost = int(value)
    if cost < 1:
        raise argparse.ArgumentTypeError("retrieval cost must be at least 1")
    return cost


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnsim",
        description="Replay annotated dialogues through attentional-state models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one model over a transcript")
    run_p.add_argument("--model", choices=["stack", "cache"], required=True)
    run_p.add_argument("--capacity", type=_capacity, default=7)
    run_p.add_argument("--cost", type=_cost, default=1)
    run_p.add_argument("--trace", metavar="PATH", default=None)
    run_p.add_argument("file")

    compare_p = sub.add_parser("compare", help="run both models and join outcomes")
    compare_p.add_argument("file")

    pops_p = sub.add_parser("pops", help="classify a return-pop corpus")
    pops_p.add_argument("file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = RunConfig(
                model_kind=ModelKind(args.model),
                transcript_path=args.file,
                capacity=args.capacity,
                retrieval_cost=args.cost,
                trace_out_path=args.trace,
            )
            payload = simulation_report_json(run(config))
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
    except Exception as error:  # noqa: BLE001 - the process boundary
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2))
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
