"""Parse outcomes of seeded fixture mutants, pinned against a recorded file.

Each fixture is mutated by line drops, swaps, duplicates, moves, inserts,
truncations, token corruptions and corrupted copies of a line (one or two
at a time, from a fixed seed).
``tests/golden/parse_outcomes.txt`` holds one line per mutant: either
``line N: <message>`` for the ``ParseError`` it raises, or ``ok <sha256>``
of ``write_transcript`` of the parsed transcript. A parser change that
alters which error a bad input gets, which line it names, or what a good
input parses to fails here. The mutants are built from the fixtures and
this module only, so changes to other test generators cannot shift them.

To re-record after a deliberate change to parser behaviour:

    PYTHONPATH=src python tests/test_parse_golden.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from attnsim.core import ItemKind
from attnsim.driver import ModelKind, classify_corpus, compare_transcript, replay
from attnsim.transcript_io import ParseError, parse, write_trace, write_transcript

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parse_outcomes.txt"
FIXTURES = ("dialogue_a", "dialogue_b", "dialogue_c", "return_pops")
MUTANTS_PER_FIXTURE = 500
SEED = 20260518

RECORD_TYPES = ("DIALOGUE", "UTT", "ITEM", "PRON", "ELLIPSIS", "PUSH", "POP", "RETURN", "CASE")
# Lines that no fixture contains but the format's error paths need.
EXTRA_LINES = (
    "FOO bar",
    "DIALOGUE X",
    "DIALOGUE",
    *RECORD_TYPES,
    "POP a b",
    "RETURN a b",
    "PUSH z expect-return",
    "UTT z speaker=Q iru=zz",
    "ITEM z kind=prop pred=p args=zz",
    "ITEM z kind=surface realizes=zz",
    "PRON z gender=m num=sg gold=zz",
    "ELLIPSIS z gold=zz",
    "CASE z mention=zz",
    "   ",
    "# comment only",
)
FLAGS = ("expect-return", "iru", "central-competitor")


def _fixture_lines(name: str) -> list[str]:
    return (ROOT / "fixtures" / f"{name}.dlg").read_text(encoding="utf-8").splitlines()


def _corrupt_token(line: str, rng: random.Random, ids: list[str]) -> str:
    body, hash_, comment = line.partition("#")
    tokens = body.split()
    if not tokens:
        return line
    at = rng.randrange(len(tokens))
    token = tokens[at]
    key, eq, value = token.partition("=")
    how = rng.randrange(10)
    if how == 0:
        del tokens[at]
    elif how == 1:
        tokens[at] = f"{key}=" if eq else token + "="
    elif how == 2:
        tokens[at] = f"bogus={value}" if eq else "bogus"
    elif how == 3:
        tokens[at] = key + value
    elif how == 4:
        tokens[at] = f"{key}=zz" if eq else "zz"
    elif how == 5:
        tokens.insert(at, token)
    elif how == 6:
        other = rng.choice(ids)
        tokens[at] = f"{key}={other}" if eq else other
    elif how == 7:
        tokens.insert(at + 1, rng.choice(FLAGS))
    elif how == 8:
        tokens[0] = rng.choice(RECORD_TYPES)
    else:
        tokens.append(rng.choice(("gender=f", "num=pl", "kind=entity", "gold=zz", "sel=a,b")))
    return " ".join(tokens) + (f" {hash_}{comment}" if hash_ else "")


def _mutate(lines: list[str], rng: random.Random, pool: list[str], ids: list[str]) -> list[str]:
    lines = list(lines)
    how = rng.randrange(8)
    n = len(lines)
    if n == 0:
        return [rng.choice(pool)]
    i, j = rng.randrange(n), rng.randrange(n)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines[i], lines[j] = lines[j], lines[i]
    elif how == 2:
        lines.insert(j, lines[i])
    elif how == 3:
        lines.insert(j, lines.pop(i))
    elif how == 4:
        lines.insert(j, rng.choice(pool))
    elif how == 5:
        cut = rng.randrange(n + 1)
        lines = lines[:cut]
        if lines and rng.randrange(2):
            lines[-1] = lines[-1][: rng.randrange(len(lines[-1]) + 1)]
    elif how == 6:
        lines[i] = _corrupt_token(lines[i], rng, ids)
    else:
        # A corrupted copy: a repeated id and a bad field on the same line.
        copy = lines[i]
        for _ in range(1 + rng.randrange(2)):
            copy = _corrupt_token(copy, rng, ids)
        lines.insert(j, copy)
    return lines


@cache
def mutants() -> list[tuple[str, str]]:
    """Every (label, source text) pair of the corpus, in recorded order."""

    sources = {name: _fixture_lines(name) for name in FIXTURES}
    pool = sorted({line for lines in sources.values() for line in lines} | set(EXTRA_LINES))
    rng = random.Random(SEED)
    corpus = []
    for name in FIXTURES:
        ids = sorted(
            {line.split()[1] for line in sources[name] if len(line.split()) > 1}
            | {"zz"}
        )
        for k in range(MUTANTS_PER_FIXTURE):
            lines = sources[name]
            for _ in range(1 + rng.randrange(2)):
                lines = _mutate(lines, rng, pool, ids)
            corpus.append((f"{name}:{k:03d}", "\n".join(lines) + "\n"))
    return corpus


def outcome(text: str) -> str:
    try:
        transcript = parse(text)
    except ParseError as error:
        return str(error)
    digest = hashlib.sha256(write_transcript(transcript).encode("utf-8")).hexdigest()
    return f"ok {digest}"


def _recorded() -> dict[str, str]:
    recorded = {}
    for row in GOLDEN.read_text(encoding="utf-8").splitlines():
        label, _, result = row.partition(" ")
        recorded[label] = result
    return recorded


@pytest.mark.parametrize("fixture", FIXTURES)
def test_parse_outcomes_match_golden(fixture):
    recorded = _recorded()
    corpus = [(label, text) for label, text in mutants() if label.startswith(fixture + ":")]
    assert len(corpus) == MUTANTS_PER_FIXTURE
    for label, text in corpus:
        assert outcome(text) == recorded[label], f"mutant {label}:\n{text}"
        if recorded[label].startswith("ok "):
            transcript = parse(text)
            assert parse(write_transcript(transcript)) == transcript, f"mutant {label}:\n{text}"


def test_corpus_reaches_both_outcomes():
    results = _recorded().values()
    assert any(result.startswith("ok ") for result in results)
    assert any(result.startswith("line ") for result in results)


LATE_GOLD = "is not an entity introduced before the RETURN"


def _gold_outside_its_segment(transcript) -> bool:
    """Whether some CASE's gold antecedent is not an entity introduced at or
    after its segment's push and before the return."""

    mentions = {mention.id: mention for mention in transcript.mentions()}
    for record in transcript.cases:
        gold = transcript.item_table[mentions[record.mention_id].gold_antecedent]
        start = transcript.push_positions[record.segment_id]
        if gold.kind is not ItemKind.ENTITY or not (
            start <= gold.introduced_at < record.return_position
        ):
            return True
    return False


def test_accepted_mutants_replay_without_error():
    # Any input the parser accepts replays, compares, traces and classifies
    # without raising, and every case's gold is among its candidates. A case
    # whose gold was said before its segment's push classifies in a window
    # that opens at the gold; one whose gold is no entity said before its
    # RETURN fails to parse on its CASE line.
    recorded = _recorded()
    widened, rejected = set(), set()
    for label, text in mutants():
        if not recorded[label].startswith("ok "):
            if recorded[label].endswith(LATE_GOLD):
                line = int(recorded[label].split()[1].rstrip(":"))
                assert text.splitlines()[line - 1].split()[0] == "CASE", label
                rejected.add(label)
            continue
        transcript = parse(text)
        compare_transcript(transcript)
        replay(transcript, ModelKind.STACK)
        for capacity, cost in ((2, 3), (None, 1)):
            report = replay(transcript, ModelKind.CACHE, capacity, cost, views=True)
            write_trace(report.records)
        for case, _, _ in classify_corpus(transcript).results:
            candidates = {item.id for item in case.candidates_at_return}
            assert case.mention.gold_antecedent in candidates, label
        if _gold_outside_its_segment(transcript):
            widened.add(label)
    # Before the window opened at the gold, these 36 stopped classify_corpus.
    assert (len(widened), len(rejected)) == (17, 19)


if __name__ == "__main__":
    rows = [f"{label} {outcome(text)}" for label, text in mutants()]
    GOLDEN.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} outcomes to {GOLDEN}", file=sys.stderr)
