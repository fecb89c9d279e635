"""attnsim benchmark: seeded inputs, three workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: ``attnsim`` is imported, and spawned,
from that checkout's ``src``. The workloads, and why each exists, are
listed in BENCHMARK.json and bench/README.md.

Operations run in cycles. A cycle runs every operation of the workload once,
and a run ends after the first whole cycle that finishes past ``--seconds``.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics. With ``--trace 1`` traced and untraced cycles alternate and the
last line carries the per-layer metrics. The line before it is a report
with sample counts, the metrics that are reported but not gated, failures
by kind and the generator's coverage counts.

The benchmark is one client in a closed loop: at most one operation, and at
most one child process, runs at a time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
from gen import COVERAGE_KEYS, Shape, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
FIXTURES = ("dialogue_a.dlg", "dialogue_b.dlg", "dialogue_c.dlg", "return_pops.dlg")

# What the ``attnsim`` console script runs.
LAUNCHER = "from attnsim.cli import main_entry; main_entry()"
PROCESS_TIMEOUT_S = 120
SETUP_REPEATS = 3
INTERP_SAMPLES = 7
CAPACITIES = ("1", "2", "3", "4", "5", "6", "7", "8", "inf")

# Share of CASE pronouns, on full-coverage transcripts, whose gold was
# introduced before the resumed segment opened (ROADMAP defect 4b).
CASE_GOLD_OUTSIDE = 0.25

# The reference loop's time at the speed all reported times are scaled to,
# the share of an interval's length spent re-timing the loop after it, and
# how many of the latest timings give the speed.
REFERENCE_LOOP_S = 0.010
REFERENCE_SHARE = 0.05
REFERENCE_WINDOW = 9

E2E_UNITS = {
    "op_p50_ms": "ms",
    "utt_per_s": "utt/s",
    "out_bytes_per_utt": "bytes/utt",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The checkout or the generated inputs cannot be benchmarked."""


@dataclass
class Op:
    key: str
    group: str
    argv: list[str]
    text: str
    generated: bool
    trace_path: Path | None = None
    records: Counter = field(init=False)

    def __post_init__(self) -> None:
        self.records = checks.count_records(self.text)

    @property
    def utterances(self) -> int:
        return self.records["UTT"]


@dataclass
class Result:
    op: Op
    cycle: int
    traced: bool
    wall_s: float
    scaled_s: float
    code: int
    report_bytes: int
    trace_bytes: int
    failure: str | None


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work; see ``SpeedClock``."""

    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60_000):
        table[i % 500] = table.get(i % 500, 0) + i
    return time.perf_counter() - start


class SpeedClock:
    """Scales wall time to a reference CPU speed.

    On a shared host the speed of a core drifts by a third over seconds to
    minutes, as other tenants come and go. That drift would swamp the
    differences the benchmark exists to show. So the reference loop is timed
    after each measured interval, and the interval is multiplied by
    REFERENCE_LOOP_S over the median of the loop's latest timings: at least
    REFERENCE_WINDOW of them, and as many from before the interval as from
    after it. The median follows the drift but ignores a single slow timing.
    A reported second is a second at the speed where the loop takes
    REFERENCE_LOOP_S. The loop is the benchmark's own code, so no change to
    attnsim can move it. The report also gives the unscaled wall time.
    """

    def __init__(self) -> None:
        self.timings: deque[float] = deque(maxlen=2 * REFERENCE_WINDOW)
        self.restart()

    def restart(self) -> None:
        """Forget earlier timings, before an interval that follows other work."""

        self.timings.clear()
        self.timings.extend(reference_loop() for _ in range(3))

    def factor(self, wall: float) -> float:
        """The scale factor for an interval of ``wall`` seconds that just
        ended. A longer interval times the loop more often."""

        samples = max(1, min(REFERENCE_WINDOW, round(wall * REFERENCE_SHARE / REFERENCE_LOOP_S)))
        self.timings.extend(reference_loop() for _ in range(samples))
        # As many timings from before the interval as from after it.
        latest = list(self.timings)[-max(REFERENCE_WINDOW, 2 * samples) :]
        return REFERENCE_LOOP_S / statistics.median(latest)


# ---------------------------------------------------------------------------
# Workloads: inputs, operations and warm-up


def _scaled(length: int, scale: float) -> int:
    return max(12, round(length * scale))


def workload_inputs(workload: str, scale: float) -> dict[str, Shape]:
    if workload == "cli-short":
        lengths = (20, 25, 30, 35, 40, 45, 50, 60)
        return {
            f"short{k}": Shape(_scaled(n, scale), block=12, case_gold_outside=CASE_GOLD_OUTSIDE)
            for k, n in enumerate(lengths)
        }
    if workload == "replay-long":
        # Surface forms stay in the root segment: defect 4a (ROADMAP) aborts
        # a bounded-cache replay whose return cue names a discarded surface
        # form, and cli-short keeps that defect in view.
        short = {f"s{k}": Shape(_scaled(500, scale), surface_in_segments=False) for k in range(4)}
        return {**short, "long": Shape(_scaled(2000, scale), surface_in_segments=False)}
    return {
        f"t{k}": Shape(_scaled(1000, scale), case_gold_outside=CASE_GOLD_OUTSIDE)
        for k in range(3)
    }


def workload_ops(
    workload: str, rng: random.Random, files: dict[str, Path], texts: dict[str, str], work: Path
) -> list[Op]:
    def op(key: str, group: str, args: list[str], name: str, traced: bool = False) -> Op:
        trace_path = work / f"{key}.trace.json" if traced else None
        argv = args + (["--trace", str(trace_path)] if traced else []) + [str(files[name])]
        return Op(key, group, argv, texts[name], generated=True, trace_path=trace_path)

    if workload == "replay-long":
        # Four short compares per cycle put the median inside one group.
        short = [name for name in files if name != "long"]
        return [
            *(op(f"compare-{n}", "compare-short", ["compare"], n) for n in short),
            op("compare-long", "compare-long", ["compare"], "long"),
            op(f"pops-{short[0]}", "pops-short", ["pops"], short[0]),
            op("pops-long", "pops-long", ["pops"], "long"),
        ]
    if workload == "trace-unbounded":
        cache = ["run", "--model", "cache", "--capacity", "inf"]
        first = next(iter(files))
        return [
            *(op(f"cache-{n}", "run-cache-inf", cache, n, traced=True) for n in files),
            op(f"stack-{first}", "run-stack", ["run", "--model", "stack"], first, traced=True),
        ]
    ops = []
    for k, name in enumerate(files):
        for slot in range(2):
            capacity, cost = rng.choice(CAPACITIES), str(rng.randint(1, 3))
            args = ["run", "--model", "cache", "--capacity", capacity, "--cost", cost]
            ops.append(op(f"cache{slot}-{name}", "run-cache", args, name, traced=slot == 1))
        stack = ["run", "--model", "stack"]
        ops.append(op(f"stack-{name}", "run-stack", stack, name, traced=k % 2 == 0))
        ops.append(op(f"compare-{name}", "compare", ["compare"], name))
        ops.append(op(f"pops-{name}", "pops", ["pops"], name))
    return ops


def fixture_ops(texts: dict[str, str]) -> list[Op]:
    """The README's examples, plus the remaining fixture, as cli-short runs them."""

    def fixture(key: str, args: list[str], name: str) -> Op:
        return Op(key, "fixture", args + [f"fixtures/{name}"], texts[name], generated=False)

    return [
        fixture("fixture-compare-b", ["compare"], "dialogue_b.dlg"),
        fixture("fixture-run-c", ["run", "--model", "cache", "--capacity", "inf"],
                "dialogue_c.dlg"),
        fixture("fixture-pops", ["pops"], "return_pops.dlg"),
        fixture("fixture-compare-a", ["compare"], "dialogue_a.dlg"),
    ]


def warmup_argv(workload: str, path: Path) -> list[list[str]]:
    # Replays that no known defect can reach: warm-up is not measured.
    if workload == "replay-long":
        return [["compare", str(path)], ["pops", str(path)]]
    if workload == "trace-unbounded":
        trace = str(path.with_suffix(".trace.json"))
        return [
            ["run", "--model", "cache", "--capacity", "inf", "--trace", trace, str(path)],
            ["run", "--model", "stack", "--trace", trace, str(path)],
        ]
    return [["run", "--model", "stack", str(path)]]


# ---------------------------------------------------------------------------
# Executing one operation


class Executor:
    """Runs operations in process or as ``attnsim`` child processes and
    collects their results, spans and counters."""

    def __init__(self, in_process: bool, cli, work: Path, clock: SpeedClock) -> None:
        self.in_process = in_process
        self.cli = cli
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.clock = clock
        self.recorder = tracer.Tracer()
        self.absent: list[str] = []
        self.op_groups: dict[int, str] = {}
        self.op_scale: dict[int, float] = {}
        self.counters: dict[str, Counter] = {}
        self.trace_bytes: dict[str, int] = {}
        self.digests: dict[str, tuple[int, str]] = {}
        self.verdicts: dict[str, str | None] = {}
        self.problems: list[str] = []

    def invoke(self, argv: list[str], op_id: int | None = None) -> tuple[int, str, str, float]:
        """Run one attnsim command; return exit code, stdout, stderr, wall time."""

        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            # Start each operation from a collected heap, as a fresh process
            # would, so that no operation pays for another's garbage.
            gc.collect()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    if op_id is None:
                        code = self.cli.main(argv)
                    else:
                        code = self.recorder.run_op(op_id, lambda: self.cli.main(argv))
                except SystemExit as exit_:
                    code = exit_.code if isinstance(exit_.code, int) else 1
            return code, out.getvalue(), err.getvalue(), time.perf_counter() - start
        if op_id is None:
            command = [sys.executable, "-c", LAUNCHER, *argv]
        else:
            spans_path = self.work / "child-spans.json"
            spans_path.unlink(missing_ok=True)
            command = [sys.executable, str(CHILD), str(spans_path), *argv]
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=PROCESS_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if op_id is not None:
            self._merge_child(spans_path, op_id)
        return done.returncode, done.stdout, done.stderr, wall

    def _merge_child(self, spans_path: Path, op_id: int) -> None:
        if not spans_path.exists():
            return
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        offset = len(self.recorder.spans)
        for _, name, parent, start, end in data["spans"]:
            parent = parent + offset if parent >= 0 else -1
            self.recorder.spans.append([op_id, name, parent, start, end])
        self.recorder.counters.update(data["counters"])
        self.recorder.trace_bytes += data["trace_bytes"]
        self.absent = data["absent"]

    def execute(self, op: Op, cycle: int, traced: bool) -> Result:
        op_id = None
        if traced:
            op_id = len(self.op_groups)
            self.op_groups[op_id] = op.group
            self.recorder.counters = Counter()
            self.recorder.trace_bytes = 0
        if op.trace_path is not None:
            op.trace_path.unlink(missing_ok=True)
        try:
            code, stdout, stderr, wall = self.invoke(op.argv, op_id)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{op.key}: timeout")
            wall = PROCESS_TIMEOUT_S
            scaled = wall * self.clock.factor(wall)
            return Result(op, cycle, traced, wall, scaled, -1, 0, 0, "timeout")
        factor = self.clock.factor(wall)
        if op_id is not None:
            self.op_scale[op_id] = factor
        trace_text = None
        if code == 0 and op.trace_path is not None:
            # A missing trace reads as empty, which fails the trace check.
            exists = op.trace_path.exists()
            trace_text = op.trace_path.read_text(encoding="utf-8") if exists else ""
        digest = hashlib.sha256(f"{stdout}\0{trace_text}".encode("utf-8")).hexdigest()
        failure = self._verdict(op, code, stdout, stderr, trace_text, digest)
        if traced:
            self._record_counters(op)
        return Result(
            op, cycle, traced, wall, wall * factor, code,
            len(stdout.encode("utf-8")), len((trace_text or "").encode("utf-8")), failure,
        )

    def _verdict(
        self, op: Op, code: int, stdout: str, stderr: str, trace_text: str | None, digest: str
    ) -> str | None:
        first = self.digests.setdefault(op.key, (code, digest))
        if first != (code, digest):
            self.problems.append(f"{op.key}: output differs from an earlier run of the operation")
            return "nondeterministic"
        if op.key not in self.verdicts:
            if code != 0:
                failure = checks.classify_exit(code, stderr, op.generated)
            else:
                failure = checks.check_output(
                    op.argv[0], op.records, stdout, trace_text,
                    return_pops_fixture=op.key == "fixture-pops",
                )
            if failure is not None and not checks.is_known_defect(failure):
                self.problems.append(f"{op.key}: {failure} {stderr.strip()[:200]}")
            self.verdicts[op.key] = failure
        return self.verdicts[op.key]

    def _record_counters(self, op: Op) -> None:
        counters = Counter(self.recorder.counters)
        earlier = self.counters.setdefault(op.key, counters)
        if earlier != counters:
            self.problems.append(f"{op.key}: model counters differ between two runs")
        self.trace_bytes.setdefault(op.key, self.recorder.trace_bytes)


# ---------------------------------------------------------------------------
# Set-up, measurement and metrics


def import_attnsim():
    if not (SRC / "attnsim" / "cli.py").is_file() or not all(
        (ROOT / "fixtures" / name).is_file() for name in FIXTURES
    ):
        raise SetupError(f"{ROOT} is not an attnsim checkout (src/attnsim and fixtures/ needed)")
    sys.path.insert(0, str(SRC))
    import attnsim.cli
    import attnsim.transcript_io

    if SRC not in Path(attnsim.cli.__file__).resolve().parents:
        raise SetupError(f"attnsim was imported from {attnsim.cli.__file__}, not from {SRC}")
    return attnsim.cli, attnsim.transcript_io


def setup_once(workload: str, seed: int, scale: float, work: Path, executor: Executor, io_module):
    """Generate, write and parse the inputs, build the operations, warm up."""

    shapes = workload_inputs(workload, scale)
    texts: dict[str, str] = {}
    files: dict[str, Path] = {}
    coverage: Counter = Counter({key: 0 for key in COVERAGE_KEYS})
    work.mkdir(parents=True)
    for name, shape in {**shapes, "warmup": Shape(60, surface_in_segments=False)}.items():
        text, counts = generate(random.Random(f"{seed}:{workload}:{name}"), shape, name)
        path = work / f"{name}.dlg"
        path.write_text(text, encoding="utf-8")
        try:
            io_module.parse(text)
        except io_module.ParseError as error:
            raise SetupError(f"generated transcript {name} does not parse: {error}") from error
        if name != "warmup":
            texts[name], files[name] = text, path
            coverage.update(counts)
    ops = workload_ops(workload, random.Random(f"{seed}:{workload}:ops"), files, texts, work)
    if workload == "cli-short":
        fixture_texts = {
            name: (ROOT / "fixtures" / name).read_text(encoding="utf-8") for name in FIXTURES
        }
        ops = fixture_ops(fixture_texts) + ops
    executor.work = work
    for argv in warmup_argv(workload, work / "warmup.dlg"):
        code, _, stderr, _ = executor.invoke(argv)
        if code != 0:
            raise SetupError(f"warm-up {' '.join(argv)} exited {code}: {stderr.strip()}")
    return ops, coverage


def interpreter_ms(clock: SpeedClock, env: dict[str, str], code: str, samples: int) -> float:
    """Median scaled time, in ms, of a fresh interpreter running ``code``."""

    times = []
    for _ in range(samples):
        clock.restart()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       timeout=PROCESS_TIMEOUT_S)
        wall = time.perf_counter() - start
        times.append(wall * clock.factor(wall))
    return statistics.median(times) * 1000


def measure(
    ops: list[Op], seconds: float, executor: Executor, trace: bool
) -> tuple[list[Result], int]:
    """Run whole cycles until ``seconds`` have passed; with ``trace``,
    cycles alternate traced and untraced, starting traced."""

    results: list[Result] = []
    deadline = time.perf_counter() + seconds
    cycle = 0
    least = 3 if trace else 2  # a repeat of every op; two traced cycles
    executor.clock.restart()
    while cycle < least or time.perf_counter() < deadline:
        traced = trace and cycle % 2 == 0
        restore = None
        if traced and executor.in_process:
            executor.absent, restore = executor.recorder.install()
        try:
            results.extend(executor.execute(op, cycle, traced) for op in ops)
        finally:
            if restore is not None:
                restore()
        cycle += 1
    return results, cycle


def _p50_ms(results: list[Result], scaled: bool = True) -> float:
    if not results:
        return float("nan")
    return statistics.median(r.scaled_s if scaled else r.wall_s for r in results) * 1000


def _per_utt(results: list[Result], size: str) -> float:
    utterances = sum(r.op.utterances for r in results)
    return sum(getattr(r, size) for r in results) / utterances if utterances else 0.0


def end_to_end(results: list[Result], setup_s: float, in_process: bool) -> dict[str, float]:
    ok = [r for r in results if r.failure is None]
    first = [r for r in ok if r.cycle == 0]
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return {
        "op_p50_ms": _p50_ms(ok),
        "utt_per_s": sum(r.op.utterances for r in ok) / sum(r.scaled_s for r in ok),
        # Report bytes per utterance of every operation plus trace bytes per
        # utterance of the operations that write one: neither share moves
        # when a known defect fails a different set of operations.
        "out_bytes_per_utt": _per_utt(first, "report_bytes")
        + _per_utt([r for r in first if r.op.trace_path], "trace_bytes"),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(executor: Executor, results: list[Result], interp: tuple[float, float]) -> dict:
    traced = [r for r in results if r.traced]
    untraced = [r for r in results if not r.traced]
    cycles = len({r.cycle for r in traced})
    self_s, calls = tracer.self_times(executor.recorder.spans, executor.op_scale)
    metrics: dict[str, tuple[float, str]] = {
        "cli.interp_ms": (interp[0], "ms"),
        "cli.import_ms": (interp[1] - interp[0], "ms"),
    }
    for name in tracer.LAYERS:
        metrics[f"{name}.self_s"] = (self_s[name] / cycles, "s")
        metrics[f"{name}.calls"] = (calls[name] / cycles, "count")
    metrics["transcript_io.write_trace.bytes"] = (sum(executor.trace_bytes.values()), "bytes")
    counters: Counter = sum(executor.counters.values(), Counter())
    for name in tracer.COUNTERS:
        metrics[name] = (counters[name], "count")
    for model in tracer.MODELS:
        mentions = counters[f"resolution.{model}.mentions"]
        ratio = counters[f"resolution.{model}.correct"] / mentions if mentions else 0.0
        metrics[f"resolution.{model}.correct_ratio"] = (ratio, "ratio")
    layer_s = sum(s for name, s in self_s.items() if name != tracer.ROOT)
    metrics["trace.coverage"] = (layer_s / sum(r.scaled_s for r in traced), "ratio")
    metrics["trace.overhead_ratio"] = (_p50_ms(traced) / _p50_ms(untraced), "ratio")
    return metrics


def compare_breakdown(executor: Executor, results: list[Result]) -> dict:
    """Self-time coverage and largest layers of the traced compare ops."""

    ops = {op_id for op_id, group in executor.op_groups.items() if group.startswith("compare")}
    if not ops:
        return {}
    self_s, _ = tracer.self_times(executor.recorder.spans, executor.op_scale, ops)
    wall = sum(r.scaled_s for r in results if r.traced and r.op.group.startswith("compare"))
    layers = {name: s for name, s in self_s.items() if name != tracer.ROOT}
    top = sorted(layers.items(), key=lambda item: item[1], reverse=True)[:6]
    return {"coverage": sum(layers.values()) / wall, "top_self_s": dict(top)}


def report(workload: str, seed: int, trace: bool, results: list[Result], cycles: int,
           coverage: Counter, executor: Executor) -> dict:
    # An operation is one distinct command; a run executes each many times.
    # It fails if any execution fails, so ``attempted`` and ``failed`` do
    # not depend on how many cycles fit in the run.
    attempted = {r.op.key for r in results}
    failed = len({r.op.key for r in results if r.failure is not None})
    measured = [r for r in results if not r.traced]
    ok = [r for r in measured if r.failure is None]
    groups: dict[str, list[Result]] = {}
    for r in ok:
        groups.setdefault(r.op.group, []).append(r)
    data: dict = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "cycles": cycles,
        "attempted": len(attempted),
        "failed": failed,
        "ops_failed_pct": 100 * failed / len(attempted),
        "executions": len(results),
        "failures": dict(Counter(
            {r.op.key: r.failure for r in results if r.failure is not None}.values()
        )),
        "op_p50_ms": {"value": _p50_ms(ok), "unit": "ms", "n": len(ok)},
        "wall_p50_ms": _p50_ms(ok, scaled=False),
        "groups": {g: {"p50_ms": _p50_ms(rs), "n": len(rs)} for g, rs in sorted(groups.items())},
        "coverage": dict(coverage),
        "problems": executor.problems[:10],
    }
    times = [r.scaled_s for r in ok]
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(times, n=10)[8] * 1000
        data["op_p90_ms"] = {"value": p90, "unit": "ms", "n": len(times)}
    if "compare-short" in groups and "compare-long" in groups:
        short, long_ = groups["compare-short"][0].op, groups["compare-long"][0].op
        ratio = _p50_ms(groups["compare-long"]) / _p50_ms(groups["compare-short"])
        data["scaling_exp"] = {
            "value": math.log(ratio) / math.log(long_.utterances / short.utterances),
            "unit": "1",
            "lengths": [short.utterances, long_.utterances],
        }
    if trace:
        traced = [r for r in results if r.traced]
        data["traced_op_p50_ms"] = _p50_ms([r for r in traced if r.failure is None])
        data["absent_wrapper_targets"] = executor.absent
        data["compare"] = compare_breakdown(executor, results)
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-short", "replay-long", "trace-unbounded"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply transcript lengths (the smoke test uses a small scale)")
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1, also write the spans, one JSON list per line")
    args = parser.parse_args(argv)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        clock = SpeedClock()
        start = time.perf_counter()
        cli, io_module = import_attnsim()
        wall = time.perf_counter() - start
        import_s = wall * clock.factor(wall)
        in_process = args.workload != "cli-short"
        executor = Executor(in_process, cli, work, clock)
        setups = []
        for repeat in range(SETUP_REPEATS):
            clock.restart()
            start = time.perf_counter()
            ops, coverage = setup_once(
                args.workload, args.seed, args.scale, work / f"setup{repeat}", executor, io_module
            )
            wall = time.perf_counter() - start
            setups.append(wall * clock.factor(wall))
        setup_s = import_s + statistics.median(setups)
        print(f"coverage {args.workload}: {json.dumps(dict(coverage))}", file=sys.stderr)

        results, cycles = measure(ops, args.seconds, executor, bool(args.trace))
        if args.trace:
            samples = 2 if args.scale < 1 else INTERP_SAMPLES
            interp = (
                interpreter_ms(clock, executor.env, "pass", samples),
                interpreter_ms(clock, executor.env, "import attnsim.cli", samples),
            )
            metrics = per_layer(executor, results, interp)
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as out:
                    out.writelines(json.dumps(span) + "\n" for span in executor.recorder.spans)
        else:
            values = end_to_end(results, setup_s, in_process)
            metrics = {name: (value, E2E_UNITS[name]) for name, value in values.items()}
    except SetupError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    summary = report(
        args.workload, args.seed, bool(args.trace), results, cycles, coverage, executor
    )
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not executor.problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
