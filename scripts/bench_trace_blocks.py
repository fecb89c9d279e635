"""Measure ``run --trace``'s block writes and its per-transcript escape
check against the parent commit, and write ``BENCH_trace_blocks.json``.

    python3 scripts/bench_trace_blocks.py --parent PARENT --change CHANGE \\
        --work SCRATCH [--parent-commit SHA] [--out BENCH_trace_blocks.json] \\
        [--stages claim,sweep,...]

PARENT and CHANGE are trees of the two commits, each made with
``git archive``; every run starts ``bench/run.py`` in its own tree.
The sweep and the reverted levers run copies of CHANGE, made under
SCRATCH, each with one edit to ``src/attnsim/driver.py``. Each stage
writes its result into OUT as soon as it ends, keeping the others, so
the stages can run one at a time. Stages:

- ``claim``: trace-unbounded, alternating pairs of parent and change;
- ``replay-long`` and ``cli-short``: the same, for the workloads that
  should not move;
- ``sweep``: trace-unbounded at ``TRACE_BLOCK`` 32, 64, 128 and 256,
  in rotating order per seed;
- ``levers``: trace-unbounded for parent, change, the change with every
  list checked for escaping again, and the change writing one whole
  string in 1 MiB slices as the parent does, in rotating order per seed;
- ``traced``: one pair with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRIVER = Path("src/attnsim/driver.py")
BLOCK_LINE = "TRACE_BLOCK = 64\n"
CHECK_LINE = "plain = plain_ids(transcript.item_table)"
BLOCK_LOOP = """\
                for start in range(0, len(records) or 1, TRACE_BLOCK):
                    stop = start + TRACE_BLOCK
                    file.write(write_trace(records, start=start, stop=stop, plain=plain))
"""
WHOLE_LOOP = """\
                text = write_trace(records, plain=plain)
                for start in range(0, len(text), 1 << 20):
                    file.write(text[start : start + (1 << 20)])
"""
WHAT = (
    "run --trace writes the trace a block of TRACE_BLOCK records per write_trace call "
    "(write_trace(records, start=, stop=)), and checks the item table's ids for escaping "
    "once per transcript (plain_ids), so write_trace(plain=True) joins view and candidate "
    "lists unchecked. Every run is python3 bench/run.py --workload W --seed N --seconds S "
    "--trace T, started in its own tree (git archive of the commit, or a copy of the change "
    "tree with one edit to src/attnsim/driver.py). Pairs alternate which side runs first "
    "(odd seeds parent first). Quartiles are statistics.quantiles(n=4, method='inclusive'). "
    "Metrics are as bench/run.py prints them. Every run made is reported."
)
STAGES = ("claim", "replay-long", "cli-short", "sweep", "levers", "traced")
FIRST_SEED = {
    "claim": 36101,
    "replay-long": 36301,
    "cli-short": 36201,
    "sweep": 36401,
    "levers": 36501,
    "traced": 36601,
}


def variant(change: Path, work: Path, name: str, edits: list[tuple[str, str]],
            source: Path = DRIVER) -> Path:
    """A copy of the change tree with ``edits`` made to one source file."""

    tree = work / name
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(change, tree, ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    text = (tree / source).read_text(encoding="utf-8")
    for old, new in edits:
        if text.count(old) != 1:
            raise SystemExit(f"{name}: {old!r} is not in {source} exactly once")
        text = text.replace(old, new)
    (tree / source).write_text(text, encoding="utf-8")
    return tree


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=900)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{tree} {workload} {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: round(value["value"], 4) for name, value in result["metrics"].items()}
    return {"metrics": metrics, "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"]}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def better(metric: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["better"] for entry in spec["end_to_end"]}[metric]


def summarize(runs: dict, names: list[str], seeds: list[int]) -> dict:
    """Per tree, the quartiles of each metric and the failed counts."""

    summary = {}
    for name in names:
        per_run = [runs[str(seed)][name] for seed in seeds]
        summary[name] = {
            metric: quartiles([run["metrics"][metric] for run in per_run])
            for metric in per_run[0]["metrics"]
        }
        summary[name]["failed"] = [run["failed"] for run in per_run]
    return summary


def rotation(trees: dict[str, Path], workload: str, seeds: list[int], seconds: float) -> dict:
    """Every tree once per seed, the order rotated by one for each seed."""

    names = list(trees)
    runs: dict = {}
    for index, seed in enumerate(seeds):
        order = names[index % len(names):] + names[: index % len(names)]
        runs[str(seed)] = {"order": order}
        for name in order:
            runs[str(seed)][name] = bench(trees[name], workload, seed, seconds)
            print(workload, seed, name, runs[str(seed)][name]["metrics"], file=sys.stderr)
    summary = summarize(runs, names, seeds)
    return {"workload": workload, "seconds": seconds, "seeds": seeds, "summary": summary,
            "runs": runs}


def pairs(parent: Path, change: Path, workload: str, seeds: list[int], seconds: float) -> dict:
    """Alternating pairs: odd-numbered seeds run the parent first."""

    runs: dict = {}
    for seed in seeds:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        runs[str(seed)] = {"order": f"{order[0]} first"}
        for side in order:
            runs[str(seed)][side] = bench(parent if side == "parent" else change,
                                          workload, seed, seconds)
            print(workload, seed, side, runs[str(seed)][side]["metrics"], file=sys.stderr)
    summary = summarize(runs, ["parent", "change"], seeds)
    wins: dict = {}
    for metric in summary["parent"]:
        if metric == "failed":
            continue
        sign = 1 if better(metric) == "higher" else -1
        wins[metric] = sum(
            sign * (runs[str(s)]["change"]["metrics"][metric]
                    - runs[str(s)]["parent"]["metrics"][metric]) > 0
            for s in seeds
        )
    return {"workload": workload, "seconds": seconds, "seeds": seeds, "pairs": len(seeds),
            "change_wins": wins, "summary": summary, "runs": runs}


def claim(result: dict, metric: str) -> dict:
    parent, change = result["summary"]["parent"][metric], result["summary"]["change"][metric]
    iqr = parent["q3"] - parent["q1"]
    gain = change["median"] - parent["median"]
    sign = 1 if better(metric) == "higher" else -1
    return {
        "workload": result["workload"], "metric": metric, "pairs": result["pairs"],
        "change_wins": result["change_wins"][metric], "parent_median": parent["median"],
        "parent_iqr": round(iqr, 4), "change_median": change["median"],
        "gain_pct": round(100 * gain / parent["median"], 2),
        "resolved": result["change_wins"][metric] >= 0.9 * result["pairs"]
        and sign * gain > iqr,
    }


def derive(out: dict) -> None:
    """The sweep's pick and each lever's gain, from the runs recorded."""

    def median(summary: dict, name: str) -> float:
        return summary[name]["utt_per_s"]["median"]

    if "sweep" in out:
        summary = out["sweep"]["summary"]
        out["sweep"]["pick"] = int(max(summary, key=lambda size: median(summary, size)))
    if "levers" in out:
        summary = out["levers"]["summary"]
        base = median(summary, "parent")
        out["levers"]["utt_per_s_gain_pct_over_parent"] = {
            name: round(100 * (median(summary, name) - base) / base, 2) for name in summary
        }


def save(out: dict, path: Path) -> None:
    derive(out)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_trace_blocks.json")
    parser.add_argument("--parent-commit", help="recorded in the output")
    parser.add_argument("--stages", default=",".join(STAGES),
                        help="comma-separated; empty to only recompute the derived fields")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--short-seconds", type=float, default=20,
                        help="seconds per run in the sweep and the lever runs")
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
            result = pairs(parent, change, "trace-unbounded", seeds(stage, args.pairs),
                           args.seconds)
            out["claim"] = claim(result, "utt_per_s")
            out.setdefault("workloads", {})["trace-unbounded"] = result
        elif stage in ("replay-long", "cli-short"):
            result = pairs(parent, change, stage, seeds(stage, args.pairs), args.seconds)
            result["utt_per_s"] = claim(result, "utt_per_s")
            out.setdefault("workloads", {})[stage] = result
        elif stage == "sweep":
            trees = {
                str(size): variant(change, args.work, f"block-{size}",
                                   [(BLOCK_LINE, f"TRACE_BLOCK = {size}\n")])
                for size in (32, 64, 128, 256)
            }
            out["sweep"] = rotation(trees, "trace-unbounded", seeds(stage, 4),
                                    args.short_seconds)
        elif stage == "levers":
            trees = {
                "parent": parent,
                "change": change,
                "checked-lists": variant(change, args.work, "checked-lists",
                                         [(CHECK_LINE, "plain = False")]),
                "whole-string": variant(change, args.work, "whole-string",
                                        [(BLOCK_LOOP, WHOLE_LOOP)]),
            }
            out["levers"] = rotation(trees, "trace-unbounded", seeds(stage, 4),
                                     args.short_seconds)
        elif stage == "traced":
            seed = FIRST_SEED[stage]
            traced = {"workload": "trace-unbounded", "seed": seed, "order": "parent first"}
            for side, tree in (("parent", parent), ("change", change)):
                traced[side] = bench(tree, "trace-unbounded", seed, args.seconds, trace=1)
            out["per_layer_traced"] = traced
        else:
            raise SystemExit(f"unknown stage {stage!r}")
        save(out, args.out)
        print(f"stage {stage} written to {args.out}", file=sys.stderr)
    save(out, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
