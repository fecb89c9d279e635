"""Randomized property suites shared by the property tests and the
acceptance gate.

Everything is driven by one recorded seed so failures replay exactly.
A failure names its suite, seed and trial index, and the utterance index
where there is one. Each suite returns the number of generated traces it
exercised; the acceptance gate checks the total.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Container

from attnsim import cache_model, stack_model
from attnsim.cache_model import new_cache
from attnsim.core import (
    AccessibilityView,
    DiscourseItem,
    EventKind,
    ItemKind,
    MentionForm,
    SegmentEvent,
    StoreEvent,
    StoreEventKind,
    Transcript,
    Utterance,
    segment_items,
    staged_filter,
)
from attnsim.driver import (
    ModelKind,
    classify_corpus,
    compare_transcript,
    divergence_report_json,
    pops_report_json,
    replay,
    simulation_report_json,
)
from attnsim.resolution import (
    FailureReason,
    Outcome,
    OutcomeKind,
    Resolution,
    analyze_iru,
    resolve,
)
from attnsim.transcript_io import parse, read_trace, write_trace, write_transcript

from conftest import restated_items

SEED = 20260808

INVARIANT_TRIALS = 350
ORACLE_TRIALS = 250
PIN_CASCADE_TRIALS = 120
INFINITE_TRIALS = 150
STACK_RESTORE_TRIALS = 60
INVARIANCE_PAIR_TRIALS = 60
CONTRAST_PAIR_TRIALS = 150
CONTRAST_CAPACITIES = (1, 2, 3, 4, 5, 6, 7, 8, None)
CONTRAST_WORSENED = (1, 2, 3, 4, 5, 7)  # must each see a worse outcome at least once
ROUNDTRIP_TRIALS = 40
FRESH_VIEW_TRIALS = 400
FRESH_VIEW_CAPACITIES = (1, 2, 3, 7)
STACK_REFERENCE_TRIALS = 400
REFERENT_INDEX_TRIALS = 400
REFERENT_INDEX_CAPACITIES = (1, 2, 7, None)
UNBOUNDED_EQUIVALENCE_TRIALS = 400
RENAMING_TRIALS = 60
RENAMING_MODELS = (
    (ModelKind.STACK, None),
    (ModelKind.CACHE, 7),
    (ModelKind.CACHE, 2),
    (ModelKind.CACHE, None),
)
TRACE_ID_TRIALS = 150
TRACE_ID_MODELS = (
    (ModelKind.STACK, None),
    (ModelKind.CACHE, 1),
    (ModelKind.CACHE, 7),
    (ModelKind.CACHE, None),
)
# How often 0, 1, 2 or 3 segment events come before an utterance.
EVENT_COUNT_WEIGHTS = (10, 5, 2, 1)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_GENDERS = ["m", "f", "n"]
_NUMBERS = ["sg", "pl"]
_PREDS = ["lift", "bolt", "ride", "fix", "stack"]
_TAGS = ["liftable", "boltable", "workable"]


def random_transcript_text(rng: random.Random, max_items: int = 20) -> str:
    """Emit a random but well-formed transcript in the line format.

    Every record roams: surface forms are declared and re-uttered inside
    segments too, so a return's cued retrieval meets discarded records.
    Dialogues run to 16 utterances with up to three surface forms, so the
    seeded trials reach returns whose resumed segment's most recent
    material is a discarded surface form (see ``run_fresh_view_suite``).
    Pronouns carry verb and selectional cues too, so mentions that differ
    in one cue meet in one replay (see ``run_referent_index_suite``).
    The text also holds comment and blank lines, entities that leave their
    gender or number unspecified, propositions of any gender, surface
    forms that realize entities, ``sel=pred:…`` requirements and pronouns
    whose gold item is declared in a later utterance.
    """

    n_entities = rng.randint(1, max(1, max_items - 4))
    n_props = rng.randint(0, min(4, max_items - n_entities))
    n_surfaces = rng.randint(0, min(3, max_items - n_entities - n_props))

    entity_ids = [f"e{i}" for i in range(n_entities)]
    prop_ids = [f"q{i}" for i in range(n_props)]
    surface_ids = [f"f{i}" for i in range(n_surfaces)]

    decls: dict[str, str] = {}
    for entity_id in entity_ids:
        fields = "kind=entity"
        if rng.random() < 0.85:
            fields += f" gender={rng.choice(_GENDERS)}"
        if rng.random() < 0.85:
            fields += f" num={rng.choice(_NUMBERS)}"
        if rng.random() < 0.3:
            fields += f" sel={rng.choice(_TAGS)}"
        decls[entity_id] = f"ITEM {entity_id} {fields}"
    for prop_id in prop_ids:
        gender = rng.choice(_GENDERS) if rng.random() < 0.3 else "n"
        fields = f"kind=prop pred={rng.choice(_PREDS)} gender={gender} num=sg"
        if entity_ids and rng.random() < 0.7:
            args = rng.sample(entity_ids, rng.randint(1, min(2, len(entity_ids))))
            fields += " args=" + ",".join(args)
        decls[prop_id] = f"ITEM {prop_id} {fields}"

    pending = entity_ids + prop_ids
    rng.shuffle(pending)
    pending_surfaces = list(surface_ids)

    lines = ["# generated", "DIALOGUE gen"]
    n_utts = rng.randint(3, 16)
    open_segments: list[str] = []
    seg_counter = 0
    introduced: list[str] = []
    mention_counter = 0

    for utt_index in range(n_utts):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", f"# before u{utt_index}", "   # indented"]))
        # Zero to three segment boundaries before this utterance, in any
        # mix: several share its position, and a segment can open and
        # close before the first utterance.
        for _ in range(rng.choices(range(4), EVENT_COUNT_WEIGHTS)[0]):
            if open_segments and (len(open_segments) == 3 or rng.random() < 0.45):
                if len(open_segments) > 1 and rng.random() < 0.4:
                    target = rng.choice(open_segments[:-1])
                    del open_segments[open_segments.index(target) + 1 :]
                    lines.append(f"RETURN {target}")
                else:
                    lines.append(f"POP {open_segments.pop()}")
                continue
            seg_id = f"seg{seg_counter}"
            seg_counter += 1
            flag = " expect-return" if rng.random() < 0.5 else ""
            lines.append(f"PUSH {seg_id}{flag}")
            open_segments.append(seg_id)

        header = f"UTT u{utt_index} speaker={rng.choice('AB')}"
        if utt_index > 1 and rng.random() < 0.15:
            count = rng.randint(1, min(2, utt_index))
            antecedents = rng.sample(range(utt_index), count)
            header += " iru=" + ",".join(f"u{i}" for i in sorted(antecedents))
        if rng.random() < 0.05:
            header += "  # a trailing comment"
        lines.append(header)

        for _ in range(rng.randint(0, 3)):
            if pending and rng.random() < 0.7:
                item_id = pending.pop()
                lines.append(decls[item_id])
                introduced.append(item_id)
            elif pending_surfaces and any(not i.startswith("f") for i in introduced):
                # Mostly a proposition's wording, which an ellipsis needs.
                realizable = [i for i in introduced if i.startswith("q")]
                if not realizable or rng.random() < 0.3:
                    realizable = [i for i in introduced if not i.startswith("f")]
                surface_id = pending_surfaces.pop()
                lines.append(f"ITEM {surface_id} kind=surface realizes={rng.choice(realizable)}")
                introduced.append(surface_id)
            elif introduced:
                lines.append(f"ITEM {rng.choice(introduced)}")
        referable = [i for i in introduced if not i.startswith("f")]
        later = [i for i in pending if i.startswith("e")]
        if later and rng.random() < 0.05:
            referable = later  # declared in a later utterance
        if referable and rng.random() < 0.4:
            gold = rng.choice(referable)
            mention_counter += 1
            if rng.random() < 0.2 and gold.startswith("q"):
                lines.append(f"ELLIPSIS m{mention_counter} gold={gold}")
            else:
                gender = rng.choice(_GENDERS)
                number = rng.choice(_NUMBERS)
                cues = ""
                if rng.random() < 0.3:
                    cues += f" verb={rng.choice(_PREDS)}"
                if rng.random() < 0.2:
                    tag = rng.choice(_TAGS) if rng.random() < 0.6 else "pred:" + rng.choice(_PREDS)
                    cues += f" sel={tag}"
                lines.append(
                    f"PRON m{mention_counter} gender={gender} num={number}{cues} gold={gold}"
                )

    if pending:
        # Everything in the catalog must be declared somewhere: argument
        # and realization references point into the full catalog.
        lines.append(f"UTT u{n_utts} speaker=A")
        lines.extend(decls[item_id] for item_id in pending)
    return "\n".join(lines) + "\n"


def _introduced_prefixes(transcript: Transcript) -> list[set[str]]:
    seen: set[str] = set()
    prefixes = []
    for utt in transcript.utterances:
        seen |= set(utt.items)
        prefixes.append(set(seen))
    return prefixes


def _where(suite: str, seed: int, trial: int) -> str:
    return f"{suite}(seed={seed}) trial {trial}"


def check_cache_invariants(state: cache_model.CacheState) -> None:
    """Raise if a cache state violates the store contracts."""

    ids = tuple(state.by_recency)
    if state.capacity is not None and len(ids) > state.capacity:
        raise AssertionError("cache over capacity")
    cached = set(ids)
    if cached & state.main_memory or cached & state.discarded:
        raise AssertionError("stores overlap")
    if state.main_memory & state.discarded:
        raise AssertionError("stores overlap")
    uses = [state.last_touch[item_id] for item_id in ids]
    if any(earlier >= later for earlier, later in zip(uses, uses[1:])):
        raise AssertionError("entries out of recency order")
    for item_id in state.discarded:
        if state.item_table[item_id].kind is not ItemKind.SURFACE_FORM:
            raise AssertionError("non-surface item discarded")
    if state.capacity is None and state.pinned:
        raise AssertionError("unbounded cache holds pins")
    if not state.pinned.keys() <= cached:
        raise AssertionError("pin on an uncached item")


def check_stack_invariants(stack: stack_model.FocusStack) -> None:
    """Raise if a focus stack violates the store contracts."""

    depths = list(stack.stacked.values())
    if any(earlier > later for earlier, later in zip(depths, depths[1:])):
        raise AssertionError("entries out of space order")
    if depths and not 0 <= depths[0] <= depths[-1] < len(stack.open):
        raise AssertionError("entry outside the open spaces")
    if not stack.popped.isdisjoint(stack.stacked):
        raise AssertionError("popped item still stacked")


def stack_spaces(stack: stack_model.FocusStack) -> list[tuple[str | None, tuple[str, ...]]]:
    """A focus stack's open spaces, bottom first, each as its segment id
    and its items least recently mentioned first."""

    spaces: list[list[str]] = [[] for _ in stack.open]
    for item_id, depth in stack.stacked.items():
        spaces[depth].append(item_id)
    return [(segment_id, tuple(items)) for segment_id, items in zip(stack.open, spaces)]


def _check(check, state, where: str) -> None:
    """Run a model's invariant check, naming where it failed."""

    try:
        check(state)
    except AssertionError as error:
        raise AssertionError(f"{where}: {error}") from error


def _track_segments(open_segments: list[str], events) -> None:
    """Advance the list of open segments, outermost first, across
    segment boundaries."""

    for event in events:
        if event.kind is EventKind.PUSH:
            open_segments.append(event.segment_id)
        elif event.kind is EventKind.POP:
            open_segments.pop()
        else:
            del open_segments[open_segments.index(event.segment_id) + 1 :]


def run_invariant_suite(seed: int = SEED, trials: int = INVARIANT_TRIALS) -> int:
    """Cache bound, store disjointness, and conservation at every step;
    pins are held only for open segments pushed with expect-return, and a
    return's cue names at most ``capacity - 1`` items, none discarded. Each
    trial steps a bounded cache and an unbounded one, which holds no pins."""

    rng = random.Random(seed)
    traces = 0
    for trial in range(trials):
        transcript = parse(random_transcript_text(rng))
        for capacity in (rng.randint(1, 8), None):
            where = f"{_where('run_invariant_suite', seed, trial)} capacity {capacity}"
            _step_checking_invariants(transcript, capacity, where)
        traces += 1
    return traces


def _step_checking_invariants(transcript: Transcript, capacity: int | None, where: str) -> None:
    state = new_cache(transcript.item_table, capacity)
    seen: set[str] = set()
    effort_before = 0
    open_segments: list[str] = []
    expecting = {e.segment_id for e in transcript.events if e.expect_return}
    for utt in transcript.utterances:
        at = f"{where} utterance {utt.index}"
        events = transcript.events_at(utt.index)
        for event in events:
            if event.kind is EventKind.RETURN:
                cue = cache_model._return_cue(state, transcript, event)
                room = len(cue) if capacity is None else capacity - 1
                assert len(cue) <= room, f"{at}: cue of {len(cue)} items"
                assert state.discarded.isdisjoint(cue), f"{at}: cue names a discarded item"
            cache_model.apply_events(state, [event], transcript)
            _check(check_cache_invariants, state, at)
        _track_segments(open_segments, events)
        leaked = set(state.pinned.values()) - expecting.intersection(open_segments)
        assert not leaked, f"{at}: pins held for closed segments {sorted(leaked)}"
        cache_model.apply_iru(state, restated_items(utt, transcript))
        _check(check_cache_invariants, state, at)
        cache_model.insert_items(state, utt.items)
        _check(check_cache_invariants, state, at)
        seen |= set(utt.items)
        snapshot = cache_model.view(state)
        bound = len(seen) if capacity is None else capacity
        assert len(snapshot.immediate) <= bound, f"{at}: over capacity"
        everywhere = set(snapshot.immediate) | snapshot.retrievable | snapshot.lost
        assert everywhere == seen, f"{at}: conservation violated"
        assert state.effort >= effort_before, f"{at}: effort regressed"
        effort_before = state.effort


def run_lru_oracle_suite(seed: int = SEED, trials: int = ORACLE_TRIALS) -> int:
    """Displacement order equals a brute-force least-recently-used oracle
    that rescans the full touch history, for pin-free traffic."""

    rng = random.Random(seed + 1)
    traces = 0
    for trial in range(trials):
        where = _where("run_lru_oracle_suite", seed, trial)
        n_items = rng.randint(2, 20)
        table = {
            f"x{i}": DiscourseItem(id=f"x{i}", kind=ItemKind.ENTITY)
            for i in range(n_items)
        }
        capacity = rng.randint(1, 6)
        state = new_cache(table, capacity)
        history: list[str] = []
        oracle_cache: list[str] = []
        displaced_impl: list[str] = []
        displaced_oracle: list[str] = []
        for _ in range(rng.randint(5, 40)):
            item_id = rng.choice(sorted(table))
            events = cache_model.insert_items(state, [item_id])
            displaced_impl.extend(
                e.target for e in events if e.kind is StoreEventKind.DISPLACE
            )
            if item_id not in oracle_cache:
                if len(oracle_cache) == capacity:

                    def last_touch(candidate: str) -> int:
                        return max(
                            i for i, h in enumerate(history) if h == candidate
                        )

                    victim = min(oracle_cache, key=last_touch)
                    oracle_cache.remove(victim)
                    displaced_oracle.append(victim)
                oracle_cache.append(item_id)
            history.append(item_id)
        assert displaced_impl == displaced_oracle, f"{where}: displacement order"
        assert sorted(state.by_recency) == sorted(oracle_cache), f"{where}: cache contents"
        traces += 1
    return traces


def run_pin_cascade_suite(seed: int = SEED, trials: int = PIN_CASCADE_TRIALS) -> int:
    """Within one eviction cascade, unpinned entries drain strictly before
    pinned ones, least recently used first inside each class."""

    rng = random.Random(seed + 2)
    empty = Transcript(dialogue_id="synthetic")
    traces = 0
    for trial in range(trials):
        where = _where("run_pin_cascade_suite", seed, trial)
        table = {
            f"x{i}": DiscourseItem(id=f"x{i}", kind=ItemKind.ENTITY) for i in range(20)
        }
        capacity = rng.randint(2, 8)
        state = new_cache(table, capacity)
        fill = rng.randint(1, capacity)
        cache_model.insert_items(state, [f"x{i}" for i in range(fill)])
        pin_event = SegmentEvent(
            kind=EventKind.PUSH, segment_id="hold", position=0, expect_return=True
        )
        cache_model.apply_events(state, [pin_event], empty)
        extra = rng.randint(0, capacity - fill) if capacity > fill else 0
        cache_model.insert_items(state, [f"x{i}" for i in range(fill, fill + extra)])
        _check(check_cache_invariants, state, where)

        entries = state.by_recency
        expected_unpinned = sorted(
            (i for i in entries if i not in state.pinned), key=state.last_touch.get
        )
        expected_pinned = sorted(
            (i for i in entries if i in state.pinned), key=state.last_touch.get
        )
        expected_order = expected_unpinned + expected_pinned

        incoming = rng.randint(1, capacity)
        start = fill + extra
        events = cache_model.insert_items(
            state, [f"x{i}" for i in range(start, start + incoming)]
        )
        displaced = [e.target for e in events if e.kind is StoreEventKind.DISPLACE]
        assert displaced == expected_order[: len(displaced)], f"{where}: cascade order"
        _check(check_cache_invariants, state, where)
        traces += 1
    return traces


def run_infinite_capacity_suite(seed: int = SEED, trials: int = INFINITE_TRIALS) -> int:
    """Unbounded caches never displace, spend no effort, and dominate the
    stack model's immediate set at every utterance."""

    rng = random.Random(seed + 3)
    forbidden = {
        StoreEventKind.DISPLACE,
        StoreEventKind.STORE,
        StoreEventKind.DISCARD,
    }
    traces = 0
    for trial in range(trials):
        transcript = parse(random_transcript_text(rng))
        cache_report = replay(transcript, ModelKind.CACHE, capacity=None, views=True)
        stack_report = replay(transcript, ModelKind.STACK, views=True)
        trial_where = _where("run_infinite_capacity_suite", seed, trial)
        assert cache_report.total_effort == 0, f"{trial_where}: effort spent"
        for cache_record, stack_record in zip(
            cache_report.records, stack_report.records
        ):
            where = f"{trial_where} utterance {cache_record.utterance_index}"
            assert cache_record.cumulative_effort == 0, f"{where}: effort spent"
            assert not any(
                e.kind in forbidden for e in cache_record.events_applied
            ), f"{where}: displaced, stored or discarded"
            assert set(cache_record.view.immediate) >= set(
                stack_record.view.immediate
            ), f"{where}: stack item not immediate in the cache"
        traces += 1
    return traces


_PINNING = {StoreEventKind.PIN, StoreEventKind.UNPIN}


def assert_unbounded_matches_oversized(transcript: Transcript, where: str) -> None:
    """A cache with room for every item never displaces either, so an
    unbounded replay must equal it once its pins are set aside, and must
    take no pins itself."""

    unbounded = replay(transcript, ModelKind.CACHE, capacity=None, views=True)
    capacity = len(transcript.item_table) + 1
    oversized = replay(transcript, ModelKind.CACHE, capacity=capacity, views=True)
    assert unbounded.iru_findings == oversized.iru_findings, f"{where}: IRU findings"
    assert unbounded.total_effort == oversized.total_effort, f"{where}: effort"
    assert len(unbounded.records) == len(oversized.records), f"{where}: record count"
    for free, roomy in zip(unbounded.records, oversized.records):
        at = f"{where} utterance {free.utterance_index}"
        assert not any(e.kind in _PINNING for e in free.events_applied), f"{at}: pinned"
        assert not any(
            e.kind is StoreEventKind.DISPLACE for e in roomy.events_applied
        ), f"{at}: capacity {capacity} displaced"
        unpinned = tuple(e for e in roomy.events_applied if e.kind not in _PINNING)
        assert free == roomy._replace(events_applied=unpinned), f"{at}: records differ"


def run_unbounded_equivalence_suite(
    seed: int = SEED, trials: int = UNBOUNDED_EQUIVALENCE_TRIALS
) -> int:
    """An unbounded cache replays as one with room for every item, minus
    the pins, on the fixtures and on generated texts."""

    for path in sorted(FIXTURES.glob("*.dlg")):
        where = f"run_unbounded_equivalence_suite {path.name}"
        assert_unbounded_matches_oversized(parse(path.read_text(encoding="utf-8")), where)
    rng = random.Random(seed + 10)
    traces = 0
    for trial in range(trials):
        where = _where("run_unbounded_equivalence_suite", seed, trial)
        assert_unbounded_matches_oversized(parse(random_transcript_text(rng)), where)
        traces += 1
    return traces


def run_stack_restore_suite(seed: int = SEED, trials: int = STACK_RESTORE_TRIALS) -> int:
    """Pushing and immediately popping a segment restores the spaces."""

    rng = random.Random(seed + 4)
    traces = 0
    for trial in range(trials):
        where = _where("run_stack_restore_suite", seed, trial)
        transcript = parse(random_transcript_text(rng))
        state = stack_model.new_stack()
        for utt in transcript.utterances:
            for event in transcript.events_at(utt.index):
                stack_model.apply_event(state, event)
            stack_model.apply_utterance(state, utt)
        spaces = stack_spaces(state)
        popped = set(state.popped)
        push = SegmentEvent(kind=EventKind.PUSH, segment_id="probe", position=0)
        pop = SegmentEvent(kind=EventKind.POP, segment_id="probe", position=0)
        stack_model.apply_event(state, push)
        stack_model.apply_event(state, pop)
        assert stack_spaces(state) == spaces, f"{where}: spaces changed"
        assert state.popped == popped, f"{where}: popped set changed"
        traces += 1
    return traces


def _interruption_text(
    sizes: tuple[int, int, int, int],
    extra: bool,
    expect_return: bool,
    closing: str = "POP",
    feminine: AbstractSet[str] = frozenset(),
    pronoun: tuple[int, int] | None = None,
) -> str:
    """A prefix utterance; a segment that interrupts it, holding one inner
    utterance and, with ``extra``, one more utterance per extra item; then
    one utterance per suffix item. ``sizes`` counts the prefix, inner,
    extra and suffix items. The segment closes with ``POP``, or with a
    ``RETURN`` to an outer segment opened before the prefix. The items
    named in ``feminine`` are feminine, every other item neuter.
    ``pronoun`` is (gold prefix item, suffix utterance): a feminine pronoun
    in that utterance whose gold item is that prefix item."""

    def entity(item_id: str) -> str:
        gender = "f" if item_id in feminine else "n"
        return f"ITEM {item_id} kind=entity gender={gender} num=sg"

    n_prefix, n_inner, n_extra, n_suffix = sizes
    lines = ["DIALOGUE pair"]
    if closing == "RETURN":
        lines.append("PUSH outer")
    lines.append("UTT p0 speaker=A")
    lines.extend(entity(f"a{i}") for i in range(n_prefix))
    lines.append("PUSH seg" + (" expect-return" if expect_return else ""))
    lines.append("UTT i0 speaker=B")
    lines.extend(entity(f"b{i}") for i in range(n_inner))
    for i in range(n_extra if extra else 0):
        lines += [f"UTT x{i} speaker=B", entity(f"x{i}")]
    lines.append("POP seg" if closing == "POP" else "RETURN outer")
    for i in range(n_suffix):
        lines += [f"UTT s{i} speaker=A", entity(f"c{i}")]
        if pronoun is not None and pronoun[1] == i:
            lines.append(f"PRON r gender=f num=sg gold=a{pronoun[0]}")
    return "\n".join(lines) + "\n"


def _interruption_pair(rng: random.Random) -> tuple[str, ...]:
    """Two transcripts identical except for extra utterances wholly inside
    a pushed-and-popped segment. Each draws its own expect-return flag,
    which the stack ignores."""

    sizes = (rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3))
    return tuple(_interruption_text(sizes, extra, rng.random() < 0.5) for extra in (False, True))


def run_interruption_invariance_suite(
    seed: int = SEED, trials: int = INVARIANCE_PAIR_TRIALS
) -> int:
    """Stack views after the pop are blind to how long the popped
    interruption was."""

    rng = random.Random(seed + 5)
    traces = 0
    for trial in range(trials):
        base_text, longer_text = _interruption_pair(rng)
        base = replay(parse(base_text), ModelKind.STACK, views=True)
        longer = replay(parse(longer_text), ModelKind.STACK, views=True)
        n_suffix = sum(
            1 for u in parse(base_text).utterances if u.id.startswith("s")
        )
        for offset in range(1, n_suffix + 1):
            base_record, longer_record = base.records[-offset], longer.records[-offset]
            assert base_record.view.immediate == longer_record.view.immediate, (
                f"{_where('run_interruption_invariance_suite', seed, trial)} "
                f"utterance {base_record.utterance_index} (longer: "
                f"{longer_record.utterance_index}): views differ"
            )
        traces += 1
    return traces


def _contrast_pairs(rng: random.Random) -> list[tuple[str, ...]]:
    """Two interruption pairs for the paper's contrast. In each, both sides
    share one expect-return flag and one way of closing the segment, and a
    pronoun after the interruption names a prefix item. In the first pair
    the only items it agrees with are its gold item and, at random, other
    prefix items; in the second, every item inside the interruption agrees
    with it too."""

    sizes = (rng.randint(1, 4), rng.randint(0, 3), rng.randint(1, 6), rng.randint(1, 3))
    expect_return = rng.random() < 0.5
    closing = rng.choice(("POP", "RETURN"))
    gold = rng.randrange(sizes[0])
    feminine = {f"a{i}" for i in range(sizes[0]) if i == gold or rng.random() < 0.3}
    inside = {f"b{i}" for i in range(sizes[1])} | {f"x{i}" for i in range(sizes[2])}
    pronoun = (gold, rng.randrange(sizes[3]))
    return [
        tuple(
            _interruption_text(sizes, extra, expect_return, closing, agreeing, pronoun)
            for extra in (False, True)
        )
        for agreeing in (feminine, feminine | inside)
    ]


# Outcome kinds from best to worst.
_OUTCOME_RANK = {OutcomeKind.IMMEDIATE: 0, OutcomeKind.AFTER_RETRIEVAL: 1, OutcomeKind.FAILURE: 2}


def interruption_contrast_counts(
    seed: int = SEED, trials: int = CONTRAST_PAIR_TRIALS
) -> dict[int | None, int]:
    """Check the two halves of the paper's contrast on each trial's pairs
    from ``_contrast_pairs``. The stack resolves the pronoun identically
    with and without the extra utterances, in both pairs: popped material
    does not compete, however much of it agrees. In the first pair, at
    every capacity in ``CONTRAST_CAPACITIES``, the cache's outcome is never
    better with them. Returns, per capacity, the number of first pairs
    where it is worse."""

    rng = random.Random(seed + 12)
    worse = dict.fromkeys(CONTRAST_CAPACITIES, 0)
    for trial in range(trials):
        where = _where("run_interruption_contrast_suite", seed, trial)
        pairs = [[parse(text) for text in pair] for pair in _contrast_pairs(rng)]
        for base, longer in pairs:
            stack = [replay(t, ModelKind.STACK).resolutions for t in (base, longer)]
            assert stack[0] == stack[1], f"{where}: stack resolutions differ"
        base, longer = pairs[0]
        for capacity in CONTRAST_CAPACITIES:
            (_, short), (_, long) = (
                replay(t, ModelKind.CACHE, capacity, candidates=False).resolutions[0]
                for t in (base, longer)
            )
            step = _OUTCOME_RANK[long.outcome.kind] - _OUTCOME_RANK[short.outcome.kind]
            assert step >= 0, (
                f"{where} capacity {capacity}: longer interruption gives {long.outcome}, "
                f"shorter {short.outcome}"
            )
            worse[capacity] += step > 0
    return worse


def run_interruption_contrast_suite(
    seed: int = SEED, trials: int = CONTRAST_PAIR_TRIALS
) -> int:
    """The stack is blind to an interruption's length and the cache never
    gains from a longer one; and, over the trials, a longer one makes the
    cache's outcome worse at least once at each of ``CONTRAST_WORSENED``.
    The other capacities' counts are not pinned; an unbounded cache never
    displaces, so its count is zero."""

    worse = interruption_contrast_counts(seed, trials)
    unmoved = [capacity for capacity in CONTRAST_WORSENED if not worse[capacity]]
    assert not unmoved, (
        f"run_interruption_contrast_suite(seed={seed}): a longer interruption never "
        f"worsened the cache at capacities {unmoved}; worse-counts {worse}"
    )
    return trials


def run_roundtrip_suite(seed: int = SEED, trials: int = ROUNDTRIP_TRIALS) -> int:
    """Parser round-trip stability and byte-identical replays."""

    rng = random.Random(seed + 6)
    traces = 0
    for trial in range(trials):
        where = _where("run_roundtrip_suite", seed, trial)
        text = random_transcript_text(rng)
        transcript = parse(text)
        assert parse(write_transcript(transcript)) == transcript, f"{where}: transcript"
        capacity = rng.choice([2, 4, 7, None])
        first = replay(transcript, ModelKind.CACHE, capacity=capacity, views=True)
        second = replay(transcript, ModelKind.CACHE, capacity=capacity, views=True)
        serialized = write_trace(first.records)
        assert serialized == write_trace(second.records), f"{where}: replays differ"
        assert read_trace(serialized) == list(first.records), f"{where}: trace"
        traces += 1
    return traces


def _cue_names_discarded(
    state: cache_model.CacheState, transcript: Transcript, event: SegmentEvent
) -> bool:
    """Whether the return cue, cut to ``capacity - 1`` before discarded
    records are left out, would name a discarded surface form: the cue
    whose retrieval crashed the cache before the cue left discarded
    records out (ROADMAP defect 4a)."""

    realized = segment_items(transcript, event.segment_id, before=event.position)
    cue = sorted(realized, key=state.last_touch.__getitem__, reverse=True)
    if state.capacity is not None:
        cue = cue[: state.capacity - 1]
    return not state.discarded.isdisjoint(cue)


def _fresh_view_fold(
    transcript: Transcript, capacity: int, where: str
) -> tuple[list, list, int]:
    """The cache replay with a new view for every IRU and every mention:
    its resolutions, its IRU findings as (utterance id, functions), and
    the number of returns whose cue met a discarded surface form. It
    checks the cache's contracts after every step, and that a resolution
    retrieves an item from main memory."""

    state = new_cache(transcript.item_table, capacity)
    resolutions: list = []
    findings: list = []
    discarded_cues = 0
    for utt in transcript.utterances:
        at = f"{where} utterance {utt.index}"
        for event in transcript.events_at(utt.index):
            if event.kind is EventKind.RETURN:
                discarded_cues += _cue_names_discarded(state, transcript, event)
            cache_model.apply_events(state, [event], transcript)
            _check(check_cache_invariants, state, at)
        if utt.iru_antecedents:
            functions = analyze_iru(utt, cache_model.view(state), transcript)
            findings.append((utt.id, tuple(functions)))
            cache_model.apply_iru(state, restated_items(utt, transcript))
            _check(check_cache_invariants, state, at)
        for mention in utt.mentions:
            resolution = resolve(mention, cache_model.view(state), transcript)
            if resolution.outcome.kind is OutcomeKind.AFTER_RETRIEVAL:
                item = resolution.outcome.item
                assert item in state.main_memory, f"{at}: {item!r} not in main memory"
                cache_model.retrieve(state, [item])
                _check(check_cache_invariants, state, at)
            resolutions.append((utt.id, resolution))
        cache_model.absorb(state, utt)
        _check(check_cache_invariants, state, at)
    return resolutions, findings, discarded_cues


def run_fresh_view_suite(seed: int = SEED, trials: int = FRESH_VIEW_TRIALS) -> int:
    """The replay fold, which reuses a view until the cache changes,
    resolves and classifies restatements exactly as a fold that builds a
    fresh view each time; and the trials reach returns whose cue meets a
    discarded surface form."""

    rng = random.Random(seed + 7)
    traces = 0
    discarded_cues = 0
    for trial in range(trials):
        transcript = parse(random_transcript_text(rng))
        for capacity in FRESH_VIEW_CAPACITIES:
            where = f"{_where('run_fresh_view_suite', seed, trial)} capacity {capacity}"
            report = replay(transcript, ModelKind.CACHE, capacity=capacity)
            resolutions, findings, reached = _fresh_view_fold(transcript, capacity, where)
            assert list(report.resolutions) == resolutions, f"{where}: resolutions"
            assert [
                (f.utterance_id, f.functions) for f in report.iru_findings
            ] == findings, f"{where}: IRU findings"
            discarded_cues += reached
        traces += 1
    assert discarded_cues > 0, (
        f"run_fresh_view_suite(seed={seed}): no return cue met a discarded surface form"
    )
    return traces


# The value-based focus stack that the in-place stack model replaced: each
# step returns a new stack of tuples, an utterance rebuilds the spaces it
# touches, and a pop rescans the lower spaces. It is the reference for the
# stack model's space events and views.


@dataclass(frozen=True)
class _ValueSpace:
    segment_id: str | None
    items: tuple[str, ...] = ()


@dataclass(frozen=True)
class _ValueStack:
    spaces: tuple[_ValueSpace, ...] = (_ValueSpace(None),)
    popped: frozenset[str] = frozenset()


def _value_apply_event(stack: _ValueStack, event: SegmentEvent) -> _ValueStack:
    ids = [space.segment_id for space in stack.spaces]
    if event.kind is EventKind.PUSH:
        assert event.segment_id not in ids
        return _ValueStack(stack.spaces + (_ValueSpace(event.segment_id),), stack.popped)
    if event.kind is EventKind.POP:
        assert ids[-1] == event.segment_id
        return _value_pop_spaces(stack, 1)
    return _value_pop_spaces(stack, len(ids) - 1 - ids.index(event.segment_id))


def _value_pop_spaces(stack: _ValueStack, count: int) -> _ValueStack:
    if count == 0:
        return stack
    remaining = stack.spaces[:-count]
    lower_items = {item for space in remaining for item in space.items}
    newly_popped = [
        item
        for space in stack.spaces[-count:]
        for item in space.items
        if item not in lower_items
    ]
    return _ValueStack(remaining, stack.popped | set(newly_popped))


def _value_apply_utterance(stack: _ValueStack, utt: Utterance) -> _ValueStack:
    if not utt.items:
        return stack
    # A repeated item ends where its last mention puts it.
    arriving = tuple(reversed(dict.fromkeys(reversed(utt.items))))
    moved = frozenset(arriving)
    spaces = [
        space
        if moved.isdisjoint(space.items)
        else _ValueSpace(space.segment_id, tuple(i for i in space.items if i not in moved))
        for space in stack.spaces
    ]
    top = spaces[-1]
    spaces[-1] = _ValueSpace(top.segment_id, top.items + arriving)
    return _ValueStack(tuple(spaces), stack.popped - moved)


def _value_view(stack: _ValueStack) -> AccessibilityView:
    immediate = [item for space in reversed(stack.spaces) for item in reversed(space.items)]
    return AccessibilityView(tuple(immediate), frozenset(), stack.popped)


def stack_reference_records(transcript: Transcript) -> list[tuple]:
    """Per utterance, the value-based stack's space events and its view
    once the utterance's items are in."""

    stack = _ValueStack()
    records = []
    for utt in transcript.utterances:
        events: list[StoreEvent] = []
        for event in transcript.events_at(utt.index):
            before = stack.spaces
            stack = _value_apply_event(stack, event)
            if event.kind is EventKind.PUSH:
                events.append(StoreEvent(StoreEventKind.PUSH_SPACE, event.segment_id))
            else:
                events.extend(
                    StoreEvent(StoreEventKind.POP_SPACE, space.segment_id)
                    for space in reversed(before[len(stack.spaces) :])
                )
        stack = _value_apply_utterance(stack, utt)
        records.append((tuple(events), _value_view(stack)))
    return records


def _checked_stack_records(transcript: Transcript, where: str) -> list[tuple]:
    """Per utterance, the stack's space events and its view once the
    utterance's items are in, stepping the stack as the replay fold does
    and checking its contracts after every step: the open spaces are the
    open segments the events imply, and every item seen so far is stacked
    or popped."""

    stack = stack_model.new_stack()
    records = []
    open_segments: list[str] = []
    seen: set[str] = set()

    def check(at: str) -> None:
        _check(check_stack_invariants, stack, at)
        assert stack.open == [None, *open_segments], f"{at}: open spaces"
        assert stack.stacked.keys() | stack.popped == seen, f"{at}: conservation violated"

    for utt in transcript.utterances:
        at = f"{where} utterance {utt.index}"
        events: list[StoreEvent] = []
        for event in transcript.events_at(utt.index):
            events += stack_model.apply_events(stack, [event], transcript)
            _track_segments(open_segments, [event])
            check(at)
        events += stack_model.absorb(stack, utt)
        seen.update(utt.items)
        check(at)
        records.append((tuple(events), stack_model.view(stack)))
    return records


def assert_stack_matches_reference(transcript: Transcript, where: str) -> None:
    """The stack replay's records and the checked stack steps both equal
    the value-based reference at every utterance."""

    expected = stack_reference_records(transcript)
    stepped = _checked_stack_records(transcript, where)
    report = replay(transcript, ModelKind.STACK, views=True)
    replayed = [(record.events_applied, record.view) for record in report.records]
    for utt, reference, by_replay, by_steps in zip(
        transcript.utterances, expected, replayed, stepped
    ):
        assert by_replay == reference, f"{where} utterance {utt.index}: replay record"
        assert by_steps == reference, f"{where} utterance {utt.index}: stepped record"
    assert len(replayed) == len(stepped) == len(expected), f"{where}: record count"


def run_stack_reference_suite(seed: int = SEED, trials: int = STACK_REFERENCE_TRIALS) -> int:
    """The stack replay's space events and views equal the value-based
    reference's at every utterance, and the stack keeps its contracts."""

    rng = random.Random(seed + 8)
    traces = 0
    for trial in range(trials):
        where = _where("run_stack_reference_suite", seed, trial)
        assert_stack_matches_reference(parse(random_transcript_text(rng)), where)
        traces += 1
    return traces


def deep_nesting_text(utterances: int) -> str:
    """A transcript ``utterances`` long whose segments nest ever deeper.

    Every utterance after the first pushes a segment that never closes,
    re-mentions the entity said two spaces down, says a new entity, and
    holds a pronoun for the re-mentioned one; entities alternate gender,
    so the pronoun's gold is the first agreeing item. A ``RETURN`` to the
    outermost segment then closes every other one, and a last utterance
    re-mentions the first entity, popped with them.
    """

    def entity(index: int) -> str:
        return f"ITEM e{index} kind=entity gender={'mf'[index % 2]} num=sg"

    lines = ["DIALOGUE deep", "UTT u0 speaker=A", entity(0)]
    for index in range(1, utterances - 1):
        lines += [f"PUSH s{index}", f"UTT u{index} speaker={'AB'[index % 2]}"]
        if index >= 2:
            gender, gold = "mf"[index % 2], f"e{index - 2}"
            lines += [f"ITEM {gold}", f"PRON m{index} gender={gender} num=sg gold={gold}"]
        lines.append(entity(index))
    lines += ["RETURN s1", f"UTT u{utterances - 1} speaker=A", "ITEM e0"]
    return "\n".join(lines) + "\n"


def old_survivor_text(utterances: int) -> str:
    """A transcript ``utterances`` long in which each utterance says a new
    entity and holds a pronoun with ``sel=rare``, a tag only the first
    entity has. A scan of the immediate tier from its most salient item
    meets every later entity before the survivor, wherever a model still
    holds them all.
    """

    lines = ["DIALOGUE old"]
    for index in range(utterances):
        lines += [
            f"UTT u{index} speaker={'AB'[index % 2]}",
            f"ITEM e{index} kind=entity gender=m num=sg" + (" sel=rare" if index == 0 else ""),
            f"PRON m{index} gender=m num=sg sel=rare gold=e0",
        ]
    return "\n".join(lines) + "\n"


def growing_resumed_text(utterances: int) -> str:
    """A transcript ``utterances`` long (rounded down to even) whose one
    resumed segment keeps growing. ``s0`` is pushed with
    ``expect-return``; each pair of utterances then pushes a segment, says
    an item in it, returns to ``s0`` and says a new item there, so the
    cache's cue at each return draws on every item ``s0`` has said.
    """

    lines = ["DIALOGUE grow", "PUSH s0 expect-return"]
    for pair in range(utterances // 2):
        inner, outer = 2 * pair, 2 * pair + 1
        lines += [f"PUSH g{pair}", f"UTT u{inner} speaker=A", f"ITEM e{inner} kind=entity"]
        lines += ["RETURN s0", f"UTT u{outer} speaker=B", f"ITEM e{outer} kind=entity"]
    return "\n".join(lines) + "\n"


@contextmanager
def counting_work():
    """Count, from outside the models, the items a replay reads, into the
    ``Counter`` it yields: ``immediate``, the items drawn from either
    model's immediate tier; ``segment_items``, the ids
    ``cache_model.segment_items`` returns to the cache's return cue; and
    ``popped``, the entries the stack's pops move, read from the growth of
    its popped set. The models gain no counter: the context wraps their
    class properties and module functions, as ``bench/tracer.py`` does,
    and puts them back on exit. A count is exact and the same on every
    run, where a time is not."""

    counts: Counter = Counter()
    patched = []

    def patch(owner, name, wrapper) -> None:
        original = getattr(owner, name)
        patched.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def drawn(tier: property) -> property:
        def immediate(state):
            for item_id in tier.fget(state):
                counts["immediate"] += 1
                yield item_id

        return property(immediate)

    def returned(segment_items):
        def counted(*args, **kwargs):
            ids = segment_items(*args, **kwargs)
            counts["segment_items"] += len(ids)
            return ids

        return counted

    def popping(apply_event):
        def counted(stack, event):
            before = len(stack.popped)
            events = apply_event(stack, event)
            counts["popped"] += len(stack.popped) - before
            return events

        return counted

    patch(cache_model.CacheState, "immediate", drawn)
    patch(stack_model.FocusStack, "immediate", drawn)
    patch(cache_model, "segment_items", returned)
    patch(stack_model, "apply_event", popping)
    try:
        yield counts
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


# Resolution as it ran before the per-signature referent index: the kind
# step and ``staged_filter`` over each store, for every mention. It is the
# reference for ``resolve``'s survivor sets.


def _reference_referents(item_ids, mention, table) -> tuple[str, ...]:
    items = [table[item_id] for item_id in item_ids]
    if mention.form is MentionForm.VP_ELLIPSIS:
        pool = [item for item in items if item.kind is ItemKind.PROPOSITION]
    else:
        pool = [item for item in items if item.kind is not ItemKind.SURFACE_FORM]
    return staged_filter(pool, mention).after_dialogue_selection


def _reference_resolve(mention, view: AccessibilityView, table, allow_retrieval: bool):
    gold = mention.gold_antecedent

    def resolution(outcome: Outcome, considered: tuple[str, ...] = ()) -> Resolution:
        return Resolution(mention.id, outcome, considered, correct=outcome.item == gold)

    if mention.form is MentionForm.VP_ELLIPSIS:
        carriers = [
            item.id
            for item in table.values()
            if item.kind is ItemKind.SURFACE_FORM and item.realizes == gold
        ]
        if carriers and carriers[0] in view.lost:
            return resolution(Outcome.failure(FailureReason.SURFACE_FORM_LOST))
    winners = _reference_referents(view.immediate, mention, table)
    if winners:
        return resolution(Outcome.immediate(winners[0]), winners)
    if allow_retrieval:
        winners = tuple(sorted(_reference_referents(view.retrievable, mention, table)))
        if len(winners) == 1:
            return resolution(Outcome.after_retrieval(winners[0], 1), winners)
        if winners:
            return resolution(Outcome.failure(FailureReason.AMBIGUOUS), winners)
    return resolution(Outcome.failure(FailureReason.NO_CANDIDATE))


def _reference_resolutions(transcript: Transcript, capacity, retrieves: bool) -> list:
    """The replay fold with every mention resolved by the reference, at
    retrieval cost 1, against a fresh view."""

    if retrieves:
        model, state = cache_model, new_cache(transcript.item_table, capacity)
    else:
        model, state = stack_model, stack_model.new_stack()
    resolutions: list = []
    for utt in transcript.utterances:
        model.apply_events(state, transcript.events_at(utt.index), transcript)
        if utt.iru_antecedents:
            model.apply_iru(state, restated_items(utt, transcript))
        for mention in utt.mentions:
            resolution = _reference_resolve(
                mention, model.view(state), transcript.item_table, retrieves
            )
            if resolution.outcome.kind is OutcomeKind.AFTER_RETRIEVAL:
                model.retrieve(state, [resolution.outcome.item])
            resolutions.append((utt.id, resolution))
        model.absorb(state, utt)
    return resolutions


def assert_resolutions_match_reference(transcript: Transcript, where: str) -> None:
    """``replay``'s resolutions equal the reference's at every mention,
    under the stack and under the cache at each suite capacity."""

    expected = _reference_resolutions(transcript, None, retrieves=False)
    report = replay(transcript, ModelKind.STACK)
    assert list(report.resolutions) == expected, f"{where} stack: resolutions"
    for capacity in REFERENT_INDEX_CAPACITIES:
        expected = _reference_resolutions(transcript, capacity, retrieves=True)
        report = replay(transcript, ModelKind.CACHE, capacity=capacity, retrieval_cost=1)
        assert list(report.resolutions) == expected, (
            f"{where} cache capacity {capacity}: resolutions"
        )


def assert_survivors_match_staged_filter(transcript: Transcript, where: str) -> None:
    """Each mention's survivor set holds the ids that pass the kind step and
    every ``staged_filter`` stage over the whole item table."""

    table = transcript.item_table
    for mention in transcript.mentions():
        expected = frozenset(_reference_referents(table, mention, table))
        assert transcript.survivors(mention) == expected, f"{where} {mention.id}: survivors"


def run_referent_index_suite(seed: int = SEED, trials: int = REFERENT_INDEX_TRIALS) -> int:
    """Per-signature survivor sets equal ``staged_filter``'s last stage, and
    resolving against them gives the same resolutions as filtering each
    store for each mention, on the fixtures and on generated texts."""

    for path in sorted(FIXTURES.glob("*.dlg")):
        transcript = parse(path.read_text(encoding="utf-8"))
        assert_survivors_match_staged_filter(transcript, f"run_referent_index_suite {path.name}")
        assert_resolutions_match_reference(transcript, f"run_referent_index_suite {path.name}")
    rng = random.Random(seed + 9)
    traces = 0
    for trial in range(trials):
        where = _where("run_referent_index_suite", seed, trial)
        transcript = parse(random_transcript_text(rng))
        assert_survivors_match_staged_filter(transcript, where)
        assert_resolutions_match_reference(transcript, where)
        traces += 1
    return traces


# Per record type, the keys whose values name ids: one, or a comma list.
_ID_KEYS = {
    "UTT": ("iru",),
    "ITEM": ("args", "realizes"),
    "PRON": ("gold",),
    "ELLIPSIS": ("gold",),
    "CASE": ("mention",),
}
# The trace and report lists that are sorted by id, not by salience.
_ID_SORTED = frozenset({"retrievable", "lost", "candidatesConsidered"})


def _order_reversing_names(transcript: Transcript) -> dict[str, str]:
    """A new name for every id of an item, mention, utterance, segment and
    case, such that the new names sort in the reverse order of the old."""

    ids = sorted(
        {utt.id for utt in transcript.utterances}
        | transcript.item_table.keys()
        | {mention.id for mention in transcript.mentions()}
        | {event.segment_id for event in transcript.events}
        | {case.case_id for case in transcript.cases}
    )
    width = len(str(len(ids)))
    return {old: f"n{len(ids) - 1 - k:0{width}d}" for k, old in enumerate(ids)}


def _renamed_text(text: str, names: dict[str, str]) -> str:
    """``text`` with every id renamed; comments go, and ``pred=``,
    ``verb=``, ``sel=`` and the dialogue id stay as they are."""

    lines = []
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        tokens = raw.partition("#")[0].split()
        if tokens and tokens[0] != "DIALOGUE":
            record, record_id, *fields = tokens
            tokens = [record, names[record_id]]
            for field in fields:
                key, equals, value = field.partition("=")
                if key in _ID_KEYS.get(record, ()):
                    field = key + equals + ",".join(names[ref] for ref in value.split(","))
                tokens.append(field)
        lines.append(" ".join(tokens))
    return "\n".join(lines)


def _named_back(value, original: dict[str, str], key: str | None = None):
    """A report or trace in comparable form: each renamed id mapped back
    through ``original``, each object an ordered list of its entries, and
    each list that is sorted by id a set."""

    if isinstance(value, str):
        return original.get(value, value)
    if isinstance(value, dict):
        return [(original.get(k, k), _named_back(v, original, k)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        items = [_named_back(v, original) for v in value]
        return frozenset(items) if key in _ID_SORTED else items
    return value


def _reports(transcript: Transcript) -> dict[str, object]:
    """What ``compare``, ``pops``, and ``run --trace`` under each of
    ``RENAMING_MODELS``, report about ``transcript``, as JSON values."""

    out: dict[str, object] = {
        "compare": json.loads(divergence_report_json(compare_transcript(transcript))),
        "pops": json.loads(pops_report_json(classify_corpus(transcript))),
    }
    for model, capacity in RENAMING_MODELS:
        label = f"{model.value} at capacity {capacity}"
        report = replay(transcript, model, capacity, views=True)
        out[f"run, {label}"] = json.loads(simulation_report_json(report))
        out[f"trace, {label}"] = json.loads(write_trace(report.records))
    return out


def assert_renaming_invariant(text: str, where: str) -> None:
    """Renaming every id by a bijection that reverses their sort order
    changes no report or trace, once the new ids are mapped back; only the
    lists sorted by id may reorder."""

    transcript = parse(text)
    names = _order_reversing_names(transcript)
    renamed = parse(_renamed_text(text, names))
    original = {new: old for old, new in names.items()}
    expected = _reports(transcript)
    for label, report in _reports(renamed).items():
        assert _named_back(report, original) == _named_back(expected[label], {}), (
            f"{where} {label}: differs after renaming"
        )


def run_renaming_suite(seed: int = SEED, trials: int = RENAMING_TRIALS) -> int:
    """Outcomes, store events, salience orders, restatement functions and
    return-pop classifications do not depend on what the ids are called,
    on the fixtures and on generated texts."""

    for path in sorted(FIXTURES.glob("*.dlg")):
        where = f"run_renaming_suite {path.name}"
        assert_renaming_invariant(path.read_text(encoding="utf-8"), where)
    rng = random.Random(seed + 13)
    traces = 0
    for trial in range(trials):
        where = _where("run_renaming_suite", seed, trial)
        assert_renaming_invariant(random_transcript_text(rng), where)
        traces += 1
    return traces


def check_record_ids(record, table: Container[str], at: str) -> None:
    """Raise if a trace record's view or a resolution's candidate list
    holds an id that is not in the item table: ``run --trace`` checks only
    the table's ids for escaping and writes these lists unchecked."""

    lists = [record.view.immediate, record.view.retrievable, record.view.lost]
    lists += [resolution.candidates_considered for resolution in record.resolutions]
    stray = [item_id for ids in lists for item_id in ids if item_id not in table]
    assert not stray, f"{at}: ids {stray} are not item-table ids"


def run_trace_id_suite(seed: int = SEED, trials: int = TRACE_ID_TRIALS) -> int:
    """Every id in a trace record's view and candidate lists is an
    item-table id, under every model, checked after every record."""

    rng = random.Random(seed + 14)
    traces = 0
    for trial in range(trials):
        transcript = parse(random_transcript_text(rng))
        for kind, capacity in TRACE_ID_MODELS:
            where = f"{_where('run_trace_id_suite', seed, trial)} {kind.value} {capacity}"
            for record in replay(transcript, kind, capacity, views=True).records:
                at = f"{where} utterance {record.utterance_index}"
                check_record_ids(record, transcript.item_table, at)
        traces += 1
    return traces


ALL_SUITES = (
    run_invariant_suite,
    run_lru_oracle_suite,
    run_pin_cascade_suite,
    run_infinite_capacity_suite,
    run_unbounded_equivalence_suite,
    run_stack_restore_suite,
    run_interruption_invariance_suite,
    run_interruption_contrast_suite,
    run_roundtrip_suite,
    run_fresh_view_suite,
    run_stack_reference_suite,
    run_referent_index_suite,
    run_renaming_suite,
    run_trace_id_suite,
)


def run_all() -> int:
    return sum(suite() for suite in ALL_SUITES)
