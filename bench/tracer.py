"""Spans and model counters for the traced benchmark run.

Wrappers are installed from outside the program, at the names callers look
functions up by: a function imported into another module is wrapped in that
module, a method on its class. Spans are kept in memory as
``[op, name, parent, start, end]`` lists and reduced to per-layer self times
when the run ends. Model counters are read from the ``SimulationReport``
values that ``driver.replay`` returns; nothing is added to the program.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter
from typing import Callable

ROOT = "op"

# (span name, module, attribute path). Several targets may share a span name.
TARGETS = (
    ("cli.main", "attnsim.cli", "main"),
    ("cli.json_dumps", "attnsim.cli", "json.dumps"),
    ("driver.run", "attnsim.cli", "run"),
    ("driver.compare", "attnsim.cli", "compare"),
    ("driver.pops", "attnsim.cli", "pops"),
    ("driver.report_json", "attnsim.cli", "simulation_report_json"),
    ("driver.report_json", "attnsim.cli", "divergence_report_json"),
    ("driver.report_json", "attnsim.cli", "pops_report_json"),
    ("driver.compare_transcript", "attnsim.driver", "compare_transcript"),
    ("driver.replay", "attnsim.driver", "replay"),
    ("driver.classify_corpus", "attnsim.driver", "classify_corpus"),
    ("driver.build_cases", "attnsim.driver", "build_cases"),
    ("transcript_io.parse", "attnsim.driver", "parse"),
    ("transcript_io.write_trace", "attnsim.driver", "write_trace"),
    ("resolution.resolve", "attnsim.driver", "resolve"),
    ("resolution.analyze_iru", "attnsim.driver", "analyze_iru"),
    ("resolution.classify_return_pop", "attnsim.driver", "classify_return_pop"),
    ("resolution.cascade_survivors", "attnsim.driver", "cascade_survivors"),
    ("resolution.cascade_survivors", "attnsim.resolution", "cascade_survivors"),
    ("resolution.surface_carrier", "attnsim.resolution", "_surface_carrier"),
    ("cache_model.apply_events", "attnsim.cache_model", "apply_events"),
    ("cache_model.apply_iru", "attnsim.cache_model", "apply_iru"),
    ("cache_model.insert_items", "attnsim.cache_model", "insert_items"),
    ("cache_model.retrieve", "attnsim.cache_model", "retrieve"),
    ("cache_model.view", "attnsim.cache_model", "view"),
    ("cache_model.segment_items", "attnsim.cache_model", "segment_items"),
    ("stack_model.apply_event", "attnsim.stack_model", "apply_event"),
    ("stack_model.apply_utterance", "attnsim.stack_model", "apply_utterance"),
    ("stack_model.view", "attnsim.stack_model", "view"),
    ("core.segment_assignments", "attnsim.core", "segment_assignments"),
    ("core.events_at", "attnsim.core", "Transcript.events_at"),
    ("core.utterance_by_id", "attnsim.core", "Transcript.utterance_by_id"),
    ("core.view_check", "attnsim.core", "AccessibilityView.__post_init__"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

CACHE_EVENTS = ("displace", "store", "discard", "retrieve", "pin", "unpin")
STACK_EVENTS = ("push_space", "pop_space")
OUTCOMES = ("immediate", "after_retrieval", "failure")
MODELS = ("stack", "cache")

COUNTERS = (
    *(f"cache_model.{name}" for name in CACHE_EVENTS),
    "cache_model.effort",
    *(f"stack_model.{name}" for name in STACK_EVENTS),
    *(f"resolution.{model}.{outcome}" for model in MODELS for outcome in OUTCOMES),
)


class _ModuleProxy(types.SimpleNamespace):
    """Stands in for a module another module imported, with some of its
    functions replaced; every other attribute comes from the module."""

    def __init__(self, module: types.ModuleType, **overrides: Callable) -> None:
        super().__init__(**overrides)
        self._module = module

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _snake(kind_value: str) -> str:
    # StoreEventKind values are CamelCase ("PushSpace"); counters are snake_case.
    return "".join("_" + c.lower() if c.isupper() else c for c in kind_value).lstrip("_")


def report_counters(report) -> Counter:
    """Exact model counters of one SimulationReport: store events by kind,
    total effort, and resolution outcomes (plus correct and mention counts)."""

    model = report.model_kind.value
    counts: Counter = Counter()
    for record in report.records:
        for event in record.events_applied:
            counts[f"{model}_model.{_snake(event.kind.value)}"] += 1
    if model == "cache":
        counts["cache_model.effort"] += report.total_effort
    for _, resolution in report.resolutions:
        counts[f"resolution.{model}.{_snake(resolution.outcome.kind.value)}"] += 1
        counts[f"resolution.{model}.correct"] += resolution.correct
        counts[f"resolution.{model}.mentions"] += 1
    return counts


class Tracer:
    """Records spans for the operation whose id is in ``op``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.op: int | None = None
        self.counters: Counter = Counter()
        self.trace_bytes = 0

    def wrap(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        spans, open_spans, clock = self.spans, self.open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([self.op, name, open_spans[-1] if open_spans else -1, clock(), 0.0])
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][4] = clock()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def run_op(self, op: int, fn: Callable):
        """Call ``fn`` under a root span that groups the operation's spans."""

        self.op = op
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self.op = None

    def _count_report(self, report) -> None:
        self.counters.update(report_counters(report))

    def _count_trace(self, text: str) -> None:
        self.trace_bytes += len(text.encode("utf-8"))

    def install(self) -> tuple[list[str], Callable[[], None]]:
        """Wrap every target that exists; return the span names whose
        targets are all absent and a function that restores the originals."""

        on_return = {
            "driver.replay": self._count_report,
            "transcript_io.write_trace": self._count_trace,
        }
        restores: list[tuple[object, str, object]] = []
        found: set[str] = set()
        for name, module_name, path in TARGETS:
            owner_path, _, leaf = path.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_path) if owner_path else module
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                continue
            traced = self.wrap(name, original, on_return.get(name))
            if owner_path and isinstance(owner, types.ModuleType):
                # Patching the shared module would trace every other caller.
                restores.append((module, owner_path, owner))
                setattr(module, owner_path, _ModuleProxy(owner, **{leaf: traced}))
            else:
                restores.append((owner, leaf, original))
                setattr(owner, leaf, traced)
            found.add(name)

        def restore() -> None:
            for owner, attr, original in reversed(restores):
                setattr(owner, attr, original)

        return [name for name in LAYERS if name not in found], restore


def self_times(
    spans: list[list], scale: dict[int, float], ops: set[int] | None = None
) -> tuple[Counter, Counter]:
    """Per-layer self time and call count over the spans of ``ops`` (all
    operations when None), each operation's times multiplied by its factor
    in ``scale``.

    A span's self time is its duration minus that of its direct children;
    spans of one thread nest, so the children never overlap.
    """

    self_s: Counter = Counter()
    calls: Counter = Counter()
    for op, name, parent, start, end in spans:
        if ops is not None and op not in ops:
            continue
        duration = (end - start) * scale[op]
        self_s[name] += duration
        calls[name] += 1
        if parent >= 0:
            self_s[spans[parent][1]] -= duration
    return self_s, calls
