"""Bounded working-memory cache model of attentional state.

The cache is a small, instantly accessible store over a larger, slower main
memory. New material displaces the least recently used entries; displaced
entities and propositions are stored in main memory, while surface forms
are discarded outright and can only come back by being re-uttered. Entries
can be pinned across an interruption when a return is expected, retrieval
from main memory costs effort, and redundant restatements refresh or
reinstate their content for free.

States are values: every operation returns a new state plus the store
events it generated, so traces are a pure fold over the transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
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


@dataclass(frozen=True)
class CacheEntry:
    item_id: str
    pinned: bool
    last_use: int


@dataclass(frozen=True)
class CacheState:
    entries: tuple[CacheEntry, ...]
    capacity: int | None  # None means unbounded
    main_memory: frozenset[str]
    discarded: frozenset[str]
    effort: int
    step: int
    pin_owners: Mapping[str, tuple[str, ...]]
    item_table: Mapping[str, DiscourseItem]
    last_touch: Mapping[str, int]

    def entry_ids(self) -> tuple[str, ...]:
        return tuple(entry.item_id for entry in self.entries)

    def has_entry(self, item_id: str) -> bool:
        return any(entry.item_id == item_id for entry in self.entries)


def new_cache(
    item_table: Mapping[str, DiscourseItem], capacity: int | None = DEFAULT_CAPACITY
) -> CacheState:
    if capacity is not None and capacity < 1:
        raise ValueError("capacity must be positive or None")
    return CacheState(
        entries=(),
        capacity=capacity,
        main_memory=frozenset(),
        discarded=frozenset(),
        effort=0,
        step=0,
        pin_owners={},
        item_table=item_table,
        last_touch={},
    )


def _touch(state: CacheState, item_id: str) -> CacheState:
    step = state.step + 1
    entries = tuple(
        replace(entry, last_use=step) if entry.item_id == item_id else entry
        for entry in state.entries
    )
    return replace(
        state, entries=entries, step=step, last_touch={**state.last_touch, item_id: step}
    )


def _add_entry(state: CacheState, item_id: str) -> CacheState:
    step = state.step + 1
    entry = CacheEntry(item_id=item_id, pinned=False, last_use=step)
    return replace(
        state,
        entries=state.entries + (entry,),
        step=step,
        last_touch={**state.last_touch, item_id: step},
    )


def _drop_pin_record(state: CacheState, item_id: str) -> CacheState:
    if not any(item_id in members for members in state.pin_owners.values()):
        return state
    owners = {
        seg: tuple(member for member in members if member != item_id)
        for seg, members in state.pin_owners.items()
    }
    return replace(state, pin_owners=owners)


def evict_one(state: CacheState) -> tuple[CacheState, str, Disposition]:
    """Displace one entry: the least recently used unpinned one, or the
    least recently used pinned one when everything is pinned.

    Entities and propositions are stored to main memory; surface forms
    are discarded and become unrecoverable by retrieval.
    """

    if not state.entries:
        raise RuntimeError("cannot evict from an empty cache")
    unpinned = [entry for entry in state.entries if not entry.pinned]
    pool = unpinned if unpinned else list(state.entries)
    victim = min(pool, key=lambda entry: entry.last_use)
    remaining = tuple(entry for entry in state.entries if entry is not victim)
    state = replace(state, entries=remaining)
    if victim.pinned:
        # A displaced entry is not in the cache, so its pin record goes too;
        # otherwise a later unpin could strip a fresh pin on a re-entry.
        state = _drop_pin_record(state, victim.item_id)
    item = state.item_table[victim.item_id]
    if item.kind is ItemKind.SURFACE_FORM:
        state = replace(state, discarded=state.discarded | {victim.item_id})
        return state, victim.item_id, Disposition.DISCARDED
    state = replace(state, main_memory=state.main_memory | {victim.item_id})
    return state, victim.item_id, Disposition.STORED


def _evict_logged(state: CacheState, events: list[StoreEvent]) -> CacheState:
    state, item_id, disposition = evict_one(state)
    events.append(StoreEvent(StoreEventKind.DISPLACE, item_id))
    if disposition is Disposition.STORED:
        events.append(StoreEvent(StoreEventKind.STORE, item_id))
    else:
        events.append(StoreEvent(StoreEventKind.DISCARD, item_id))
    return state


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
        deficit = len(state.entries) + len(movers) - state.capacity
        for _ in range(max(0, min(deficit, len(state.entries)))):
            state = _evict_logged(state, events)
    for item_id in movers:
        if state.capacity is not None and len(state.entries) >= state.capacity:
            state = _evict_logged(state, events)
        state, readmit_events = _readmit(state, item_id)
        events.extend(readmit_events)
    return state, events


def _readmit(state: CacheState, item_id: str) -> tuple[CacheState, list[StoreEvent]]:
    """Bring an absent item into the cache, wherever its record lives."""

    events: list[StoreEvent] = []
    if item_id in state.main_memory:
        state = replace(state, main_memory=state.main_memory - {item_id})
        events.append(StoreEvent(StoreEventKind.RETRIEVE, item_id))
    elif item_id in state.discarded:
        state = replace(state, discarded=state.discarded - {item_id})
        events.append(StoreEvent(StoreEventKind.RETRIEVE, item_id))
    state = _add_entry(state, item_id)
    return state, events


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
        state = _touch(state, item_id)
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
        state = _touch(state, item_id)
    state, events = _admit(state, movers)
    effort_delta = cost_per_item * len(movers)
    state = replace(state, effort=state.effort + effort_delta)
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
            pinned_now = [e.item_id for e in state.entries if not e.pinned]
            entries = tuple(
                replace(e, pinned=True) if not e.pinned else e for e in state.entries
            )
            state = replace(
                state,
                entries=entries,
                pin_owners={**state.pin_owners, event.segment_id: tuple(pinned_now)},
            )
            log.extend(StoreEvent(StoreEventKind.PIN, i) for i in pinned_now)
            continue

        owned = state.pin_owners.get(event.segment_id, ())
        if event.segment_id in state.pin_owners:
            entries = tuple(
                replace(e, pinned=False) if e.item_id in owned else e
                for e in state.entries
            )
            owners = {
                seg: members
                for seg, members in state.pin_owners.items()
                if seg != event.segment_id
            }
            state = replace(state, entries=entries, pin_owners=owners)
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


def process_utterance(
    state: CacheState,
    utt: Utterance,
    events_before: Sequence[SegmentEvent],
    transcript: Transcript,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> tuple[CacheState, list[StoreEvent]]:
    """Advance the cache across one utterance: segment boundaries first,
    then redundancy handling, then the utterance's own items.
    """

    state, log = apply_events(state, events_before, transcript, retrieval_cost)
    state, iru_events = apply_iru(state, utt, transcript)
    log.extend(iru_events)
    state, absorb_events = absorb(state, utt)
    log.extend(absorb_events)
    return state, log


def view(state: CacheState) -> AccessibilityView:
    """Accessibility under the cache model: cached items by recency, main
    memory retrievable at a cost, discarded records lost.
    """

    ordered = sorted(state.entries, key=lambda entry: entry.last_use, reverse=True)
    return AccessibilityView(
        immediate=tuple(entry.item_id for entry in ordered),
        retrievable=state.main_memory,
        lost=state.discarded,
    )


def check_invariants(state: CacheState) -> None:
    """Raise if a state violates the store contracts (test support)."""

    ids = state.entry_ids()
    if len(set(ids)) != len(ids):
        raise AssertionError("duplicate cache entries")
    if state.capacity is not None and len(ids) > state.capacity:
        raise AssertionError("cache over capacity")
    cached = set(ids)
    if cached & state.main_memory or cached & state.discarded:
        raise AssertionError("stores overlap")
    if state.main_memory & state.discarded:
        raise AssertionError("stores overlap")
    uses = [entry.last_use for entry in state.entries]
    if len(set(uses)) != len(uses):
        raise AssertionError("last_use collision")
    for item_id in state.discarded:
        if state.item_table[item_id].kind is not ItemKind.SURFACE_FORM:
            raise AssertionError("non-surface item discarded")
    owned = [m for members in state.pin_owners.values() for m in members]
    if len(set(owned)) != len(owned):
        raise AssertionError("pin record owned twice")
    pinned = {entry.item_id for entry in state.entries if entry.pinned}
    if pinned != set(owned):
        raise AssertionError("pin flags and pin records disagree")
