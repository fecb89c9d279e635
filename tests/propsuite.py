"""Randomized property suites shared by the property tests and the
acceptance gate.

Everything is driven by one recorded seed so failures replay exactly.
A failure names its suite, seed and trial index, and the utterance index
where there is one. Each suite returns the number of generated traces it
exercised; the acceptance gate checks the total.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet

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
)
from attnsim.driver import ModelKind, replay
from attnsim.resolution import (
    FailureReason,
    Outcome,
    OutcomeKind,
    ReferentIndex,
    Resolution,
    analyze_iru,
    resolve,
    staged_filter,
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
    """

    n_entities = rng.randint(1, max(1, max_items - 4))
    n_props = rng.randint(0, min(4, max_items - n_entities))
    n_surfaces = rng.randint(0, min(3, max_items - n_entities - n_props)) if n_props else 0

    entity_ids = [f"e{i}" for i in range(n_entities)]
    prop_ids = [f"q{i}" for i in range(n_props)]
    surface_ids = [f"f{i}" for i in range(n_surfaces)]

    decls: dict[str, str] = {}
    for entity_id in entity_ids:
        fields = f"kind=entity gender={rng.choice(_GENDERS)} num={rng.choice(_NUMBERS)}"
        if rng.random() < 0.3:
            fields += f" sel={rng.choice(_TAGS)}"
        decls[entity_id] = f"ITEM {entity_id} {fields}"
    for prop_id in prop_ids:
        fields = f"kind=prop pred={rng.choice(_PREDS)} gender=n num=sg"
        if entity_ids and rng.random() < 0.7:
            args = rng.sample(entity_ids, rng.randint(1, min(2, len(entity_ids))))
            fields += " args=" + ",".join(args)
        decls[prop_id] = f"ITEM {prop_id} {fields}"

    pending = entity_ids + prop_ids
    rng.shuffle(pending)
    pending_surfaces = list(surface_ids)

    lines = ["DIALOGUE gen"]
    n_utts = rng.randint(3, 16)
    open_segments: list[str] = []
    seg_counter = 0
    introduced: list[str] = []
    mention_counter = 0

    for utt_index in range(n_utts):
        # Segment boundaries before this utterance.
        if open_segments and rng.random() < 0.25:
            if len(open_segments) > 1 and rng.random() < 0.4:
                target = rng.choice(open_segments[:-1])
                del open_segments[open_segments.index(target) + 1 :]
                lines.append(f"RETURN {target}")
            else:
                lines.append(f"POP {open_segments.pop()}")
        if len(open_segments) < 3 and rng.random() < 0.3:
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
        lines.append(header)

        introduced_props = [i for i in introduced if i.startswith("q")]
        for _ in range(rng.randint(0, 3)):
            if pending and rng.random() < 0.7:
                item_id = pending.pop()
                lines.append(decls[item_id])
                introduced.append(item_id)
                if item_id.startswith("q"):
                    introduced_props.append(item_id)
            elif pending_surfaces and introduced_props:
                surface_id = pending_surfaces.pop()
                realized = rng.choice(introduced_props)
                lines.append(f"ITEM {surface_id} kind=surface realizes={realized}")
                introduced.append(surface_id)
            elif introduced:
                lines.append(f"ITEM {rng.choice(introduced)}")
        referable = [i for i in introduced if not i.startswith("f")]
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
                    cues += f" sel={rng.choice(_TAGS)}"
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

    stacked = [item_id for space in stack.spaces.values() for item_id in space]
    if len(set(stacked)) != len(stacked):
        raise AssertionError("item in more than one space")
    if not stack.popped.isdisjoint(stacked):
        raise AssertionError("popped item still stacked")


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
    pins are held only for open segments pushed with expect-return. Each
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
        cache_model.apply_events(state, events, transcript)
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
        spaces = [(s, tuple(items)) for s, items in state.spaces.items()]
        popped = set(state.popped)
        push = SegmentEvent(kind=EventKind.PUSH, segment_id="probe", position=0)
        pop = SegmentEvent(kind=EventKind.POP, segment_id="probe", position=0)
        stack_model.apply_event(state, push)
        stack_model.apply_event(state, pop)
        restored = [(s, tuple(items)) for s, items in state.spaces.items()]
        assert restored == spaces, f"{where}: spaces changed"
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
    that crashed the cache with ``RetrievalFailure`` (ROADMAP defect 4a)."""

    realized = segment_items(transcript, event.segment_id, before=event.position)
    cue = sorted(realized, key=state.last_touch.__getitem__, reverse=True)
    if state.capacity is not None:
        cue = cue[: state.capacity - 1]
    return not state.discarded.isdisjoint(cue)


def _fresh_view_fold(transcript: Transcript, capacity: int) -> tuple[list, list, int]:
    """The cache replay with a new view for every IRU and every mention:
    its resolutions, its IRU findings as (utterance id, functions), and
    the number of returns whose cue met a discarded surface form."""

    state = new_cache(transcript.item_table, capacity)
    index = ReferentIndex(transcript.item_table)
    resolutions: list = []
    findings: list = []
    discarded_cues = 0
    for utt in transcript.utterances:
        for event in transcript.events_at(utt.index):
            if event.kind is EventKind.RETURN:
                discarded_cues += _cue_names_discarded(state, transcript, event)
            cache_model.apply_events(state, [event], transcript)
        if utt.is_iru:
            functions = analyze_iru(utt, cache_model.view(state), transcript)
            findings.append((utt.id, tuple(functions)))
            cache_model.apply_iru(state, restated_items(utt, transcript))
        for mention in utt.mentions:
            resolution = resolve(mention, cache_model.view(state), index)
            if resolution.outcome.kind is OutcomeKind.AFTER_RETRIEVAL:
                cache_model.retrieve(state, [resolution.outcome.item])
            resolutions.append((utt.id, resolution))
        cache_model.absorb(state, utt)
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
            resolutions, findings, reached = _fresh_view_fold(transcript, capacity)
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
    and checking its contracts after every step."""

    stack = stack_model.new_stack()
    records = []
    for utt in transcript.utterances:
        at = f"{where} utterance {utt.index}"
        events = stack_model.apply_events(stack, transcript.events_at(utt.index), transcript)
        _check(check_stack_invariants, stack, at)
        events += stack_model.absorb(stack, utt)
        _check(check_stack_invariants, stack, at)
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
        model.apply_events(state, transcript.events_at(utt.index), transcript, 1)
        if utt.is_iru:
            model.apply_iru(state, restated_items(utt, transcript))
        for mention in utt.mentions:
            resolution = _reference_resolve(
                mention, model.view(state), transcript.item_table, retrieves
            )
            if resolution.outcome.kind is OutcomeKind.AFTER_RETRIEVAL:
                model.retrieve(state, [resolution.outcome.item], 1)
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


def run_referent_index_suite(seed: int = SEED, trials: int = REFERENT_INDEX_TRIALS) -> int:
    """Resolving against per-signature survivor sets gives the same
    resolutions as filtering each store for each mention, on the fixtures
    and on generated texts."""

    for path in sorted(FIXTURES.glob("*.dlg")):
        transcript = parse(path.read_text(encoding="utf-8"))
        assert_resolutions_match_reference(transcript, f"run_referent_index_suite {path.name}")
    rng = random.Random(seed + 9)
    traces = 0
    for trial in range(trials):
        where = _where("run_referent_index_suite", seed, trial)
        assert_resolutions_match_reference(parse(random_transcript_text(rng)), where)
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
)


def run_all() -> int:
    return sum(suite() for suite in ALL_SUITES)
