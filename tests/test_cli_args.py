"""``cli.read_canonical`` reads a canonical argv exactly as argparse does,
and leaves every other argv to argparse, so help, usage errors and their
messages stay argparse's own."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import re
import sys
from pathlib import Path

import pytest

from attnsim import cli

ROOT = Path(__file__).resolve().parent.parent
SEED = 20261022
DRAWS = 20000

# The alphabet the argvs are drawn from.
COMMANDS = ("run", "compare", "pops", "rnu")
OPTIONS = ("--model", "--capacity", "--cost", "--trace")
ABBREVIATED = ("--mod", "--cap", "--co", "--c", "--tr", "-m")
LONE = ("-h", "--help", "--", "-", "--bogus")
VALUES = ("inf", "0", "1", "7", "-1", "+3", " 3", "٣", "08", "", "stack", "cache", "Stack")
FILES = ("a.dlg", "x y.dlg", "run", "inf")


def _draw(rng: random.Random) -> list[str]:
    """A command (or none), then groups of words in random order: mostly
    option-value pairs, some abbreviated or ``--opt=value`` options, lone
    flags and stray values, and zero to two files, mostly one."""

    groups = [[rng.choice(FILES)] for _ in range(rng.choice((0, 1, 1, 1, 1, 2)))]
    for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 4))):
        kind = rng.random()
        if kind < 0.3:
            groups.append(["--model", rng.choice(("stack", "cache", rng.choice(VALUES)))])
        elif kind < 0.65:
            groups.append([rng.choice(OPTIONS), rng.choice(VALUES)])
        elif kind < 0.75:
            groups.append([rng.choice(ABBREVIATED), rng.choice(VALUES)])
        elif kind < 0.85:
            groups.append([f"{rng.choice(OPTIONS)}={rng.choice(VALUES)}"])
        elif kind < 0.93:
            groups.append([rng.choice(LONE)])
        else:
            groups.append([rng.choice(VALUES + OPTIONS)])
    rng.shuffle(groups)
    command = [rng.choice(COMMANDS)] if rng.random() < 0.97 else []
    return command + [word for group in groups for word in group]


def _argparse(parser, argv: list[str]) -> dict | None:
    """What argparse reads from ``argv``, or None where it exits."""

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_the_reader_agrees_with_argparse_on_random_argvs():
    rng = random.Random(SEED)
    parser = cli.build_parser()
    taken = {command: 0 for command in COMMANDS}
    for _ in range(DRAWS):
        argv = _draw(rng)
        read = cli.read_canonical(argv)
        if read is None:
            continue
        assert vars(read) == _argparse(parser, argv), argv
        taken[argv[0]] += 1
    # Every command has argvs the reader takes, and the rest go to argparse.
    assert all(taken[command] > 50 for command in ("run", "compare", "pops")), taken
    assert sum(taken.values()) < DRAWS / 2, taken


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["run", "-h", "a.dlg"],
        ["rnu", "a.dlg"],
        ["compare"],
        ["compare", "a.dlg", "b.dlg"],
        ["compare", "--", "a.dlg"],
        ["compare", "-"],
        ["compare", "--model", "stack", "a.dlg"],
        ["run", "a.dlg"],
        ["run", "--mod", "stack", "a.dlg"],
        ["run", "--model=stack", "a.dlg"],
        ["run", "--model", "stak", "a.dlg"],
        ["run", "--model", "stack", "--trace", "-", "a.dlg"],
        ["run", "--model", "stack", "--trace"],
        *(
            ["run", "--model", "cache", option, value, "a.dlg"]
            for option in ("--capacity", "--cost")
            for value in ("0", "-1", "+3", " 3", "٣", "3_0", "", "1" * 12)
        ),
        ["run", "--model", "cache", "--cost", "inf", "a.dlg"],
    ],
)
def test_the_reader_leaves_every_other_argv_to_argparse(argv):
    assert cli.read_canonical(argv) is None


@pytest.mark.parametrize(
    "argv, read",
    [
        (["compare", "a.dlg"], {"command": "compare", "file": "a.dlg"}),
        (["pops", ""], {"command": "pops", "file": ""}),
        (
            ["run", "a.dlg", "--model", "stack"],
            {"command": "run", "model": "stack", "capacity": 7, "cost": 1, "trace": None,
             "file": "a.dlg"},
        ),
        (
            ["run", "--capacity", "5", "--model", "cache", "--capacity", "inf", "--cost", "08",
             "--trace", "run", "x y.dlg"],
            {"command": "run", "model": "cache", "capacity": None, "cost": 8, "trace": "run",
             "file": "x y.dlg"},
        ),
    ],
)
def test_the_reader_reads_what_argparse_reads(argv, read):
    assert vars(cli.read_canonical(argv)) == read == _argparse(cli.build_parser(), argv)


def _readme_argvs() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines()]


def _ci_argvs() -> list[list[str]]:
    """The argvs the packaged-entry-point loop runs on one fixture."""

    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    commands = re.search(r"for command in ([\w ]+); do", text).group(1).split()
    options = re.findall(r'"[\w-]+:(--model [^"]*)"', text)
    assert commands and options
    argvs = [[command, "fixture.dlg"] for command in commands]
    return argvs + [["run", *o.split(), "--trace", "trace.json", "fixture.dlg"] for o in options]


def _bench_argvs(tmp_path: Path) -> list[list[str]]:
    """Every argv ``bench/run.py`` builds for its workloads and warm-ups."""

    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)  # bench/run.py imports its neighbours by name
    try:
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = run  # dataclasses resolve the module by name
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(bench)
        sys.modules.pop("bench_run", None)
    argvs = []
    for workload in ("cli-short", "replay-long", "trace-unbounded"):
        names = run.workload_inputs(workload, 1.0)
        files = {name: tmp_path / f"{name}.dlg" for name in names}
        texts = dict.fromkeys(names, "")
        ops = run.workload_ops(workload, random.Random(SEED), files, texts, tmp_path)
        argvs += [op.argv for op in ops]
        argvs += run.warmup_argv(workload, tmp_path / "warmup.dlg")
    texts = {name: "" for name in run.FIXTURES}
    return argvs + [op.argv for op in run.fixture_ops(texts)]


def test_every_documented_ci_and_benchmark_argv_takes_the_reader(tmp_path):
    argvs = _readme_argvs() + _ci_argvs() + _bench_argvs(tmp_path)
    assert len(argvs) > 40
    parser = cli.build_parser()
    for argv in argvs:
        read = cli.read_canonical(argv)
        assert read is not None, argv
        assert vars(read) == _argparse(parser, argv), argv
