"""Bounded working-memory cache model of attentional state.

The cache is a small, instantly accessible store over a larger, slower main
memory. New material displaces the least recently used entries; displaced
entities and propositions are stored in main memory, while surface forms
are discarded outright and can only come back by being re-uttered. Entries
can be pinned across an interruption when a return is expected, retrieval
from main memory costs effort, and redundant restatements refresh or
reinstate their content for free.

The replay fold owns one ``CacheState`` and every operation updates it in
place, returning it with the store events it generated, so a step costs
the same however long the transcript has run. Entries sit in a dict in
recency order, least recently used first: a touch moves an entry to the
end and eviction takes the first unpinned one. What leaves the state is
an ``AccessibilityView``, an immutable snapshot; views share one frozen
copy of main memory and of the discarded set until that store changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Mapping, Sequence

from .core import (
    DiscourseItem,
    EventKind,
    ItemKind,
    SegmentEvent,
    StoreEvent,
    StoreEventKind,
    AccessibilityView,
    Transcript,
    Utterance,
    segment_items,
)

DEFAULT_CAPACITY = 7
DEFAULT_RETRIEVAL_COST = 1


class RetrievalFailure(RuntimeError):
    """A cued retrieval named an item whose record no longer exists."""

    def __init__(self, item_id: str) -> None:
        super().__init__(f"item {item_id!r} was discarded and cannot be retrieved")
        self.item_id = item_id


class CueSetTooLarge(ValueError):
    """A retrieval cue set exceeds what the cache can hold at once."""

    def __init__(self, size: int, capacity: int) -> None:
        super().__init__(f"cue set of {size} items exceeds capacity {capacity}")
        self.size = size
        self.capacity = capacity


class Disposition(Enum):
    STORED = "stored"
    DISCARDED = "discarded"


@dataclass
class CacheEntry:
    """One cached item. ``admitted`` is the step at which it entered the
    cache: pins are taken in admission order, whatever the recency."""

    item_id: str
    pinned: bool
    last_use: int
    admitted: int = 0


@dataclass
class CacheState:
    capacity: int | None  # None means unbounded
    item_table: Mapping[str, DiscourseItem]
    # Cached entries by item id, least recently used first.
    by_recency: dict[str, CacheEntry] = field(default_factory=dict)
    main_memory: set[str] = field(default_factory=set)
    discarded: set[str] = field(default_factory=set)
    effort: int = 0
    step: int = 0
    pin_owners: dict[str, tuple[str, ...]] = field(default_factory=dict)
    last_touch: dict[str, int] = field(default_factory=dict)
    # Frozen copies of main_memory and discarded that views share; None
    # once the store has changed since the last view.
    frozen_main: frozenset[str] | None = field(default=None, init=False, compare=False)
    frozen_discarded: frozenset[str] | None = field(
        default=None, init=False, compare=False
    )

    @property
    def entries(self) -> tuple[CacheEntry, ...]:
        return tuple(self.by_recency.values())

    def entry_ids(self) -> tuple[str, ...]:
        return tuple(self.by_recency)

    def has_entry(self, item_id: str) -> bool:
        return item_id in self.by_recency


def new_cache(
    item_table: Mapping[str, DiscourseItem], capacity: int | None = DEFAULT_CAPACITY
) -> CacheState:
    if capacity is not None and capacity < 1:
        raise ValueError("capacity must be positive or None")
    return CacheState(capacity=capacity, item_table=item_table)


def _touch(state: CacheState, item_id: str) -> None:
    state.step += 1
    entry = state.by_recency.pop(item_id)
    entry.last_use = state.step
    state.by_recency[item_id] = entry
    state.last_touch[item_id] = state.step


def _add_entry(state: CacheState, item_id: str) -> None:
    state.step += 1
    step = state.step
    state.by_recency[item_id] = CacheEntry(item_id, False, step, admitted=step)
    state.last_touch[item_id] = step


def _drop_pin_record(state: CacheState, item_id: str) -> None:
    for segment_id, members in state.pin_owners.items():
        if item_id in members:
            state.pin_owners[segment_id] = tuple(m for m in members if m != item_id)
            return


def evict_one(state: CacheState) -> tuple[CacheState, str, Disposition]:
    """Displace one entry: the least recently used unpinned one, or the
    least recently used pinned one when everything is pinned.

    Entities and propositions are stored to main memory; surface forms
    are discarded and become unrecoverable by retrieval.
    """

    if not state.by_recency:
        raise RuntimeError("cannot evict from an empty cache")
    entries = state.by_recency.values()
    victim = next((entry for entry in entries if not entry.pinned), None)
    if victim is None:
        victim = next(iter(entries))
    del state.by_recency[victim.item_id]
    if victim.pinned:
        # A displaced entry is not in the cache, so its pin record goes too;
        # otherwise a later unpin could strip a fresh pin on a re-entry.
        _drop_pin_record(state, victim.item_id)
    if state.item_table[victim.item_id].kind is ItemKind.SURFACE_FORM:
        state.discarded.add(victim.item_id)
        state.frozen_discarded = None
        return state, victim.item_id, Disposition.DISCARDED
    state.main_memory.add(victim.item_id)
    state.frozen_main = None
    return state, victim.item_id, Disposition.STORED


def _evict_logged(state: CacheState, events: list[StoreEvent]) -> None:
    _, item_id, disposition = evict_one(state)
    events.append(StoreEvent(StoreEventKind.DISPLACE, item_id))
    if disposition is Disposition.STORED:
        events.append(StoreEvent(StoreEventKind.STORE, item_id))
    else:
        events.append(StoreEvent(StoreEventKind.DISCARD, item_id))


def _admit(
    state: CacheState, movers: Sequence[str]
) -> tuple[CacheState, list[StoreEvent]]:
    """Bring absent items in, displacing as one up-front cascade.

    Running the cascade before any insertion keeps the displacement order
    honest: unpinned entries always drain before pinned ones. When the
    incoming batch alone exceeds capacity, its own earliest members are
    displaced in turn as the later ones arrive.
    """

    events: list[StoreEvent] = []
    if state.capacity is not None:
        deficit = len(state.by_recency) + len(movers) - state.capacity
        for _ in range(max(0, min(deficit, len(state.by_recency)))):
            _evict_logged(state, events)
    for item_id in movers:
        if state.capacity is not None and len(state.by_recency) >= state.capacity:
            _evict_logged(state, events)
        _readmit(state, item_id, events)
    return state, events


def _readmit(state: CacheState, item_id: str, events: list[StoreEvent]) -> None:
    """Bring an absent item into the cache, wherever its record lives."""

    if item_id in state.main_memory:
        state.main_memory.remove(item_id)
        state.frozen_main = None
        events.append(StoreEvent(StoreEventKind.RETRIEVE, item_id))
    elif item_id in state.discarded:
        state.discarded.remove(item_id)
        state.frozen_discarded = None
        events.append(StoreEvent(StoreEventKind.RETRIEVE, item_id))
    _add_entry(state, item_id)


def insert_items(
    state: CacheState, item_ids: Sequence[str]
) -> tuple[CacheState, list[StoreEvent]]:
    """Admit realized items at no effort: touch the ones already cached,
    then displace as needed and (re)enter the rest.

    Realization never fails; even a discarded surface form re-enters when
    it is uttered again.
    """

    present: list[str] = []
    movers: list[str] = []
    for item_id in item_ids:
        if state.has_entry(item_id):
            if item_id not in present:
                present.append(item_id)
        elif item_id not in movers:
            movers.append(item_id)
    for item_id in present:
        _touch(state, item_id)
    return _admit(state, movers)


def retrieve(
    state: CacheState,
    item_ids: Sequence[str],
    cost_per_item: int = DEFAULT_RETRIEVAL_COST,
) -> tuple[CacheState, int, list[StoreEvent]]:
    """Cued retrieval from main memory into the cache.

    Items already cached are touched for free; each item actually moved
    costs ``cost_per_item`` effort. Asking for a discarded item fails: the
    record no longer exists anywhere.
    """

    if state.capacity is not None and len(item_ids) > state.capacity:
        raise CueSetTooLarge(len(item_ids), state.capacity)
    for item_id in item_ids:
        if item_id in state.discarded:
            raise RetrievalFailure(item_id)

    present: list[str] = []
    movers: list[str] = []
    for item_id in item_ids:
        if state.has_entry(item_id):
            if item_id not in present:
                present.append(item_id)
        elif item_id in state.main_memory and item_id not in movers:
            movers.append(item_id)
    for item_id in present:
        _touch(state, item_id)
    _, events = _admit(state, movers)
    effort_delta = cost_per_item * len(movers)
    state.effort += effort_delta
    return state, effort_delta, events


def apply_events(
    state: CacheState,
    events_before: Sequence[SegmentEvent],
    transcript: Transcript,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> tuple[CacheState, list[StoreEvent]]:
    """Apply segment boundaries: pin on an expected return, unpin when the
    segment closes, and cue a retrieval of the resumed segment's material.
    """

    log: list[StoreEvent] = []
    for event in events_before:
        if event.kind is EventKind.PUSH:
            if not event.expect_return:
                continue
            unpinned = [e for e in state.by_recency.values() if not e.pinned]
            unpinned.sort(key=attrgetter("admitted"))
            for entry in unpinned:
                entry.pinned = True
            pinned_now = tuple(entry.item_id for entry in unpinned)
            state.pin_owners[event.segment_id] = pinned_now
            log.extend(StoreEvent(StoreEventKind.PIN, i) for i in pinned_now)
            continue

        owned = state.pin_owners.pop(event.segment_id, None)
        if owned is not None:
            for item_id in owned:
                state.by_recency[item_id].pinned = False
            log.extend(StoreEvent(StoreEventKind.UNPIN, i) for i in owned)

        if event.kind is EventKind.RETURN:
            cue = _return_cue(state, transcript, event)
            state, _, retrieval_events = retrieve(state, cue, retrieval_cost)
            log.extend(retrieval_events)
    return state, log


def _return_cue(
    state: CacheState, transcript: Transcript, event: SegmentEvent
) -> list[str]:
    """Most recently used items of the resumed segment, leaving one slot
    free so the retrieval cannot immediately evict the incoming utterance.
    Discarded surface forms are gone for good, so the cue leaves them out.
    """

    realized = segment_items(transcript, event.segment_id, before=event.position)
    candidates = [item_id for item_id in realized if item_id not in state.discarded]
    candidates.sort(key=lambda item_id: state.last_touch[item_id], reverse=True)
    if state.capacity is not None:
        candidates = candidates[: state.capacity - 1]
    return candidates


def apply_iru(
    state: CacheState, utt: Utterance, transcript: Transcript
) -> tuple[CacheState, list[StoreEvent]]:
    """Refresh or reinstate the content a redundant utterance re-realizes.

    Each item of each antecedent utterance is touched if cached, moved in
    from main memory, or re-created from nothing if its surface record was
    discarded. Restating costs no effort: the speaker is doing the work.
    """

    if not utt.is_iru:
        return state, []
    wanted: list[str] = []
    for antecedent_id in utt.iru_antecedents:
        for item_id in transcript.utterance_by_id(antecedent_id).items:
            if item_id not in wanted:
                wanted.append(item_id)
    return insert_items(state, wanted)


def absorb(state: CacheState, utt: Utterance) -> tuple[CacheState, list[StoreEvent]]:
    """Admit the utterance's own items at no effort."""

    return insert_items(state, utt.items)


def view(state: CacheState) -> AccessibilityView:
    """Accessibility under the cache model: cached items by recency, main
    memory retrievable at a cost, discarded records lost.
    """

    if state.frozen_main is None:
        state.frozen_main = frozenset(state.main_memory)
    if state.frozen_discarded is None:
        state.frozen_discarded = frozenset(state.discarded)
    return AccessibilityView(
        immediate=tuple(reversed(state.by_recency)),
        retrievable=state.frozen_main,
        lost=state.frozen_discarded,
    )


def check_invariants(state: CacheState) -> None:
    """Raise if a state violates the store contracts (test support)."""

    ids = state.entry_ids()
    if any(entry.item_id != key for key, entry in state.by_recency.items()):
        raise AssertionError("entry filed under another id")
    if state.capacity is not None and len(ids) > state.capacity:
        raise AssertionError("cache over capacity")
    cached = set(ids)
    if cached & state.main_memory or cached & state.discarded:
        raise AssertionError("stores overlap")
    if state.main_memory & state.discarded:
        raise AssertionError("stores overlap")
    uses = [entry.last_use for entry in state.entries]
    if any(earlier >= later for earlier, later in zip(uses, uses[1:])):
        raise AssertionError("entries out of recency order")
    if state.frozen_main is not None and state.frozen_main != state.main_memory:
        raise AssertionError("stale main-memory snapshot")
    if state.frozen_discarded is not None and state.frozen_discarded != state.discarded:
        raise AssertionError("stale discarded snapshot")
    for item_id in state.discarded:
        if state.item_table[item_id].kind is not ItemKind.SURFACE_FORM:
            raise AssertionError("non-surface item discarded")
    owned = [m for members in state.pin_owners.values() for m in members]
    if len(set(owned)) != len(owned):
        raise AssertionError("pin record owned twice")
    pinned = {entry.item_id for entry in state.entries if entry.pinned}
    if pinned != set(owned):
        raise AssertionError("pin flags and pin records disagree")
