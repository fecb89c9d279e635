"""The benchmark's traced run wraps attnsim functions by the names callers
look them up by (``bench/tracer.py``). A target that no longer resolves
is skipped there without an error, and its per-layer metric reads zero,
so every one of them must resolve here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from attnsim import stack_model

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    original = stack_model.view
    absent, restore = tracer.Tracer().install()
    try:
        assert stack_model.view is not original
        assert absent == []
    finally:
        restore()
    assert stack_model.view is original
