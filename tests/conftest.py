from __future__ import annotations

import faulthandler
import gc
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from attnsim import cache_model
from attnsim.transcript_io import parse

# The property suites live in a helper module; rewrite its asserts too, so
# a failure shows the compared values. This must run before any test
# module imports it.
pytest.register_assert_rewrite("propsuite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# The hang timer's traceback goes to a copy of the terminal's stderr, taken
# while pytest does not capture it: the captured stream is lost on exit.
HANG_SECONDS = 60
_hang_stderr: int | None = None


def pytest_configure(config):
    global _hang_stderr
    _hang_stderr = os.dup(sys.__stderr__.fileno())
    _check_tested_tree()


def _check_tested_tree():
    """Stop the session when ``PYTHONPATH``'s first entry holds an attnsim
    package other than the one imported: ``pyproject.toml``'s ``pythonpath``
    puts this checkout's ``src`` first, so the tests would quietly run
    against this tree instead of the one asked for."""

    first = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    asked = Path(first, "attnsim").resolve()
    imported = Path(cache_model.__file__).resolve().parent
    if first and (asked / "__init__.py").is_file() and asked != imported:
        pytest.exit(
            f"PYTHONPATH asks for the attnsim package in {asked}, but the tests "
            f"import the one in {imported}; run them from that package's checkout",
            returncode=pytest.ExitCode.USAGE_ERROR,
        )


def pytest_unconfigure(config):
    os.close(_hang_stderr)


@pytest.fixture(autouse=True)
def hang_ends_the_run():
    """A test still running after ``HANG_SECONDS`` dumps every thread's
    traceback and ends the whole run with exit code 1, so a looping test
    names where it loops and cannot hold the run forever."""

    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=_hang_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_fixture(name: str):
    return parse(fixture_path(name).read_text(encoding="utf-8"))


def load_bench_gen():
    """The benchmark's transcript generator, ``bench/gen.py``, imported once."""

    module = sys.modules.get("bench_gen")
    if module is None:
        path = FIXTURES.parent / "bench" / "gen.py"
        spec = importlib.util.spec_from_file_location("bench_gen", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve the module by name
        spec.loader.exec_module(module)
    return module


def restated_items(utt, transcript):
    """The items a redundant utterance restates, read straight from its
    antecedent utterances, each once in order of first mention."""

    antecedents = map(transcript.utterance_by_id, utt.iru_antecedents)
    return list(dict.fromkeys(i for a in antecedents for i in a.items))


def cache_step(state, utt, events_before, transcript):
    """Advance a cache across one utterance the way the replay fold does:
    segment boundaries, then redundancy handling, then the utterance's own
    items. Returns the store events in order."""

    log = cache_model.apply_events(state, events_before, transcript)
    log += cache_model.apply_iru(state, restated_items(utt, transcript))
    return log + cache_model.absorb(state, utt)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail any test that leaves the cyclic garbage collector off:
    ``cli.main`` pauses it for a command and must turn it back on."""

    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the cyclic garbage collector was left off")


@pytest.fixture(scope="session")
def dialogue_a():
    return load_fixture("dialogue_a.dlg")


@pytest.fixture(scope="session")
def dialogue_b():
    return load_fixture("dialogue_b.dlg")


@pytest.fixture(scope="session")
def dialogue_c():
    return load_fixture("dialogue_c.dlg")


@pytest.fixture(scope="session")
def return_pops():
    return load_fixture("return_pops.dlg")
