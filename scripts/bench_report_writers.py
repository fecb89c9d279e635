"""Measure the fixed-layout report writers against the parent commit, and
write ``BENCH_report_writers.json``.

    python3 scripts/bench_report_writers.py --parent PARENT --change CHANGE \\
        [--parent-commit SHA] [--out BENCH_report_writers.json] \\
        [--stages writers,claim,...]

PARENT and CHANGE are trees of the two commits, each made with
``git archive``; every run starts in its own tree. Each stage writes its
result into OUT as soon as it ends, keeping the others, so the stages can
run one at a time. Stages:

- ``writers``: in process, each report's stdout path (the writer, then
  ``attnsim.cli``'s ``json.dumps`` with its ``_Report`` encoder) on the
  replay-long shape at 500 and 2,000 utterances, best of ``--repeats``
  with the cyclic collector off, one child process per tree and round,
  the trees alternating;
- ``claim``: replay-long, alternating pairs of parent and change;
- ``trace-unbounded`` and ``cli-short``: the same, for the workloads that
  should not move;
- ``traced``: one pair each of replay-long and trace-unbounded with
  ``--trace 1``, the per-layer metrics.

The pair helpers are ``scripts/bench_trace_blocks.py``'s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench_trace_blocks import bench, claim, pairs

ROOT = Path(__file__).resolve().parent.parent
WHAT = (
    "Each report (run, compare, pops) is written by its own fixed-layout writer in "
    "attnsim.driver, which returns the report's text; attnsim.cli's json.dumps passes it "
    "through (_Report.encode returns it). At the parent the writers built dicts that "
    "transcript_io.indented_json laid out inside that json.dumps. End-to-end runs are "
    "python3 bench/run.py --workload W --seed N --seconds S --trace T, started in their own "
    "tree (git archive of each commit). Pairs alternate which side runs first (odd seeds "
    "parent first). Quartiles are statistics.quantiles(n=4, method='inclusive'). Every run "
    "made is reported."
)
STAGES = ("writers", "claim", "trace-unbounded", "cli-short", "traced")
FIRST_SEED = {"claim": 37101, "trace-unbounded": 37201, "cli-short": 37301, "traced": 37401}
SIZES = (500, 2000)

# Run in a child process whose PYTHONPATH is one tree's src/: the time of each
# report's writer and of the json.dumps that prints it, best of REPEATS, in ms.
TIMING = r"""
import gc, importlib.util, json, random, sys, time
from attnsim import cli, driver
from attnsim.transcript_io import parse

spec = importlib.util.spec_from_file_location("bench_gen", "bench/gen.py")
gen = importlib.util.module_from_spec(spec)
sys.modules["bench_gen"] = gen
spec.loader.exec_module(gen)
sizes, repeats, seed = json.loads(sys.argv[1])
reports = {
    "run-stack": lambda t: driver.replay(t, driver.ModelKind.STACK),
    "run-cache-7": lambda t: driver.replay(t, driver.ModelKind.CACHE, 7),
    "run-cache-inf": lambda t: driver.replay(t, driver.ModelKind.CACHE, None),
    "compare": driver.compare_transcript,
    "pops": driver.classify_corpus,
}
writers = {
    "run": cli.simulation_report_json,
    "compare": cli.divergence_report_json,
    "pops": cli.pops_report_json,
}
out = {}
gc.disable()
for size in sizes:
    shape = gen.Shape(size, surface_in_segments=False)
    text, _ = gen.generate(random.Random(seed), shape, f"long{size}")
    transcript = parse(text)
    for name, build in reports.items():
        try:
            report = build(transcript)
        except ValueError:  # defect 4b
            continue
        write = writers[name.split("-")[0]]
        best_write = best_dumps = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            payload = write(report)
            middle = time.perf_counter()
            printed = json.dumps(payload, cls=cli._Report)
            end = time.perf_counter()
            best_write = min(best_write, middle - start)
            best_dumps = min(best_dumps, end - middle)
        out[f"{name}@{size}"] = {
            "report_json_ms": round(1e3 * best_write, 4),
            "json_dumps_ms": round(1e3 * best_dumps, 4),
            "bytes": len(printed),
        }
print(json.dumps(out))
"""


def time_writers(tree: Path, repeats: int, seed: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-c", TIMING, json.dumps([list(SIZES), repeats, seed])]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=900, check=True)
    return json.loads(done.stdout)


def writers(parent: Path, change: Path, rounds: int, repeats: int, seed: int) -> dict:
    """Per tree and report, the median over rounds of each round's best
    times; the trees alternate which runs first."""

    runs: dict = {"parent": [], "change": []}
    for index in range(rounds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(time_writers(parent if side == "parent" else change,
                                           repeats, seed))
            print("writers", index, side, file=sys.stderr)
    summary: dict = {}
    for report in runs["parent"][0]:
        row: dict = {}
        for side in ("parent", "change"):
            per_round = [run[report] for run in runs[side]]
            for part in ("report_json_ms", "json_dumps_ms"):
                row[f"{side}_{part}"] = round(statistics.median(r[part] for r in per_round), 4)
            row[f"{side}_total_ms"] = round(
                statistics.median(r["report_json_ms"] + r["json_dumps_ms"] for r in per_round), 4
            )
        if runs["parent"][0][report]["bytes"] != runs["change"][0][report]["bytes"]:
            raise SystemExit(f"{report}: the two trees print different lengths")
        row["bytes"] = runs["change"][0][report]["bytes"]
        row["change_over_parent"] = round(row["change_total_ms"] / row["parent_total_ms"], 3)
        summary[report] = row
    return {"seed": seed, "rounds": rounds, "repeats": repeats, "sizes": list(SIZES),
            "summary": summary, "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_report_writers.json")
    parser.add_argument("--parent-commit", help="recorded in the output")
    parser.add_argument("--stages", default=",".join(STAGES))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--rounds", type=int, default=6, help="child processes per tree")
    parser.add_argument("--repeats", type=int, default=25, help="timed calls per child")
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    out["host"] = (f"{platform.system()} {platform.machine()}, "
                   f"{len(os.sched_getaffinity(0))} vCPUs, Python {platform.python_version()}")
    out["what"] = WHAT
    if args.parent_commit:
        out["parent_commit"] = args.parent_commit

    def seeds(stage: str) -> list[int]:
        return list(range(FIRST_SEED[stage], FIRST_SEED[stage] + args.pairs))

    for stage in filter(None, args.stages.split(",")):
        if stage == "writers":
            out["writers"] = writers(parent, change, args.rounds, args.repeats, seed=37001)
        elif stage == "claim":
            result = pairs(parent, change, "replay-long", seeds(stage), args.seconds)
            out["claim"] = claim(result, "op_p50_ms")
            result["utt_per_s"] = claim(result, "utt_per_s")
            out.setdefault("workloads", {})["replay-long"] = result
        elif stage in ("trace-unbounded", "cli-short"):
            result = pairs(parent, change, stage, seeds(stage), args.seconds)
            result["utt_per_s"] = claim(result, "utt_per_s")
            result["op_p50_ms"] = claim(result, "op_p50_ms")
            out.setdefault("workloads", {})[stage] = result
        elif stage == "traced":
            seed = FIRST_SEED[stage]
            traced: dict = {}
            for workload in ("replay-long", "trace-unbounded"):
                traced[workload] = {"seed": seed, "order": "parent first"}
                for side, tree in (("parent", parent), ("change", change)):
                    traced[workload][side] = bench(tree, workload, seed, args.seconds, trace=1)
                    print("traced", workload, side, file=sys.stderr)
            out["per_layer_traced"] = traced
        else:
            raise SystemExit(f"unknown stage {stage!r}")
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"stage {stage} written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
