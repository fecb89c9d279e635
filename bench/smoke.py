"""Smoke test of the benchmark itself, at a tiny input size.

    python3 bench/smoke.py

Runs every workload for a fraction of a second on small transcripts, with
and without tracing, and asserts that the last line of output names every
metric of BENCHMARK.json with its unit. It also checks that the generator
is deterministic, that two traced runs of one seed give the same call
counts and model counters, that the spans of one operation share an id,
and that the benchmark refuses to run where there is no attnsim checkout.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

from gen import Shape, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--scale", "0.05", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, done.stdout.splitlines()[-2]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    names = {m["name"] for m in expected}
    assert set(emitted) == names, set(emitted) ^ names
    for metric in expected:
        value = emitted[metric["name"]]
        assert value["unit"] == metric["unit"], (metric["name"], value["unit"])
        assert isinstance(value["value"], (int, float)), metric["name"]
    return emitted


def exact(metrics: dict) -> dict:
    """The per-layer metrics that a run must reproduce exactly: call counts,
    trace bytes, model counters and correctness ratios."""

    return {
        name: value["value"]
        for name, value in metrics.items()
        if value["unit"] in ("count", "bytes") or name.endswith("correct_ratio")
    }


def check_spans(spans_path: Path) -> None:
    spans = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
    assert spans, "no spans written"
    for op, name, parent, start, end in spans:
        assert start <= end, name
        if parent >= 0:
            assert spans[parent][0] == op, f"{name} and its parent belong to different operations"


def main() -> int:
    try:
        return run_checks()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        if SCRATCH.parent.is_dir() and not any(SCRATCH.parent.iterdir()):
            SCRATCH.parent.rmdir()


def run_checks() -> int:
    text, coverage = generate(random.Random("7:x"), Shape(120), "x")
    assert (text, coverage) == generate(random.Random("7:x"), Shape(120), "x")
    assert text != generate(random.Random("8:x"), Shape(120), "x")[0]

    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0, run_bench(ROOT, workload, 0))
        spans_path = SCRATCH / f"{workload}.spans"
        SCRATCH.mkdir(parents=True, exist_ok=True)
        traced = check_result(workload, 1, run_bench(ROOT, workload, 1, "--spans", str(spans_path)))
        check_spans(spans_path)
        again = check_result(workload, 1, run_bench(ROOT, workload, 1))
        assert exact(traced) == exact(again), "counters differ between two runs of one seed"
        print(f"ok {workload}")

    bare = SCRATCH / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0 and "correct" not in done.stdout, done.stdout
    print("ok refuses a directory without attnsim")
    return 0


if __name__ == "__main__":
    sys.exit(main())
