"""Measure a CLI call's start-up and shutdown against the parent commit,
and write ``BENCH_cli_start.json``.

    python3 scripts/bench_cli_start.py --parent PARENT --change CHANGE \\
        --work SCRATCH [--parent-commit SHA] [--out BENCH_cli_start.json] \\
        [--stages claim,replay-long,...]

PARENT and CHANGE are trees of the two commits, each made with
``git archive``; every run starts ``bench/run.py`` in its own tree. The
lever runs use copies of CHANGE, made under SCRATCH, each with one edit
to ``src/attnsim/cli.py``. Each stage writes its result into OUT as soon
as it ends, keeping the others, so the stages can run one at a time.
Stages:

- ``claim``: cli-short, alternating pairs of parent and change;
- ``replay-long`` and ``trace-unbounded``: the same, for the workloads
  that run in process and should get only the reader's share;
- ``levers``: cli-short for parent, change, the change without
  ``gc.freeze`` at exit, and the change reading every argv with
  argparse, in rotating order per seed;
- ``traced``: one cli-short pair with ``--trace 1``, the per-layer
  metrics.

The pair helpers are ``scripts/bench_trace_blocks.py``'s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from bench_trace_blocks import bench, claim, pairs, rotation, variant

ROOT = Path(__file__).resolve().parent.parent
CLI = Path("src/attnsim/cli.py")
FREEZE_LINE = "    gc.freeze()\n"
READER_CALL = "read_canonical(argv) or "
WHAT = (
    "A canonical argv (a command, full option names each followed by a value that does "
    "not start with '-', and one file) is read by attnsim.cli.read_canonical without "
    "argparse, which is imported only in build_parser; any other argv goes to argparse. "
    "attnsim.cli.main_entry calls gc.freeze() before sys.exit, so the collection at "
    "interpreter exit walks no object. End-to-end runs are python3 bench/run.py "
    "--workload W --seed N --seconds S --trace T, started in their own tree (git archive "
    "of each commit, or a copy of the change tree with one edit to src/attnsim/cli.py). "
    "Pairs alternate which side runs first (odd seeds parent first). Quartiles are "
    "statistics.quantiles(n=4, method='inclusive'). Every run made is reported."
)
STAGES = ("claim", "replay-long", "trace-unbounded", "levers", "traced")
FIRST_SEED = {
    "claim": 40101,
    "replay-long": 40201,
    "trace-unbounded": 40301,
    "levers": 40401,
    "traced": 40501,
}


def gains(out: dict) -> None:
    """Each lever tree's cli-short ``op_p50_ms`` median against the parent's."""

    summary = out["levers"]["summary"]
    base = summary["parent"]["op_p50_ms"]["median"]
    out["levers"]["op_p50_ms_change_pct_over_parent"] = {
        name: round(100 * (summary[name]["op_p50_ms"]["median"] - base) / base, 2)
        for name in summary
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli_start.json")
    parser.add_argument("--parent-commit", help="recorded in the output")
    parser.add_argument("--stages", default=",".join(STAGES))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--lever-seeds", type=int, default=6)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    args.work.mkdir(parents=True, exist_ok=True)
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    out["host"] = (f"{platform.system()} {platform.machine()}, "
                   f"{len(os.sched_getaffinity(0))} vCPUs, Python {platform.python_version()}")
    out["what"] = WHAT
    if args.parent_commit:
        out["parent_commit"] = args.parent_commit

    def seeds(stage: str, count: int) -> list[int]:
        return list(range(FIRST_SEED[stage], FIRST_SEED[stage] + count))

    for stage in filter(None, args.stages.split(",")):
        if stage == "claim":
            result = pairs(parent, change, "cli-short", seeds(stage, args.pairs), args.seconds)
            out["claim"] = claim(result, "op_p50_ms")
            result["utt_per_s"] = claim(result, "utt_per_s")
            result["setup_s"] = claim(result, "setup_s")
            out.setdefault("workloads", {})["cli-short"] = result
        elif stage in ("replay-long", "trace-unbounded"):
            result = pairs(parent, change, stage, seeds(stage, args.pairs), args.seconds)
            result["op_p50_ms"] = claim(result, "op_p50_ms")
            result["utt_per_s"] = claim(result, "utt_per_s")
            out.setdefault("workloads", {})[stage] = result
        elif stage == "levers":
            trees = {
                "parent": parent,
                "change": change,
                "no-freeze": variant(change, args.work, "no-freeze", [(FREEZE_LINE, "")], CLI),
                "no-reader": variant(change, args.work, "no-reader", [(READER_CALL, "")], CLI),
            }
            out["levers"] = rotation(trees, "cli-short", seeds(stage, args.lever_seeds),
                                     args.seconds)
            gains(out)
        elif stage == "traced":
            seed = FIRST_SEED[stage]
            traced = {"workload": "cli-short", "seed": seed, "order": "parent first"}
            for side, tree in (("parent", parent), ("change", change)):
                traced[side] = bench(tree, "cli-short", seed, args.seconds, trace=1)
                print("traced", side, file=sys.stderr)
            out["per_layer_traced"] = traced
        else:
            raise SystemExit(f"unknown stage {stage!r}")
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"stage {stage} written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
