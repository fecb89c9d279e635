"""Bounded working-memory cache model of attentional state.

The cache is a small, instantly accessible store over a larger, slower main
memory. New material displaces the least recently used entries; displaced
entities and propositions are stored in main memory, while surface forms
are discarded outright and can only come back by being re-uttered. Entries
can be pinned across an interruption when a return is expected, retrieval
from main memory costs effort, and redundant restatements refresh or
reinstate their content for free. An unbounded cache never displaces, so
it pins nothing.

The replay fold owns one ``CacheState`` and every step updates it in
place and returns the store events it generated, as the stack model's
steps do, so a step costs the same however long the transcript has run.
Cached ids sit in a dict in recency order, least recently used first,
each mapped to the step that admitted it: a touch moves an id to the end
and eviction takes the first unpinned one. Each pin is one entry of a
map from the pinned item to the segment whose push took it, in pin
order; displacing the item drops it. A move between stores checks that
the item has no other record.
Resolution reads the live stores; a trace record's ``AccessibilityView``
comes from ``core.snapshot``, which freezes main memory and the discarded
set anew only where they differ from the previous record's.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import (
    DiscourseItem,
    EventKind,
    ItemKind,
    AccessibilityView,
    SalienceOrder,
    SegmentEvent,
    StoreEvent,
    StoreEventKind,
    Transcript,
    Utterance,
    segment_items,
    snapshot,
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


class CacheState:
    def __init__(
        self, capacity: int | None, item_table: Mapping[str, DiscourseItem]
    ) -> None:
        self.capacity = capacity  # None means unbounded
        self.item_table = item_table
        # Cached item ids, least recently used first, each mapped to the step
        # that admitted it: pins are taken in admission order, whatever the
        # recency.
        self.by_recency: dict[str, int] = {}
        self.main_memory: set[str] = set()
        self.discarded: set[str] = set()
        self.effort = 0
        self.step = 0
        # Each pinned cached item, in pin order, mapped to the segment whose
        # expect-return push pinned it.
        self.pinned: dict[str, str] = {}
        # The step of each item's latest touch, cached or not.
        self.last_touch: dict[str, int] = {}

    # The stores as resolution reads them, cached ids most recent first.
    immediate = property(lambda self: SalienceOrder((self.by_recency,)))
    retrievable = property(lambda self: self.main_memory)
    lost = property(lambda self: self.discarded)


def new_cache(
    item_table: Mapping[str, DiscourseItem], capacity: int | None = DEFAULT_CAPACITY
) -> CacheState:
    if capacity is not None and capacity < 1:
        raise ValueError("capacity must be positive or None")
    return CacheState(capacity=capacity, item_table=item_table)


def _touch(state: CacheState, item_id: str) -> None:
    state.step += 1
    state.by_recency[item_id] = state.by_recency.pop(item_id)
    state.last_touch[item_id] = state.step


def evict_one(state: CacheState) -> list[StoreEvent]:
    """Displace one entry: the least recently used unpinned one, or the
    least recently used pinned one when everything is pinned.

    Entities and propositions are stored to main memory; surface forms
    are discarded and become unrecoverable by retrieval.
    """

    if not state.by_recency:
        raise RuntimeError("cannot evict from an empty cache")
    entries = state.by_recency
    unpinned = (item_id for item_id in entries if item_id not in state.pinned)
    victim = next(unpinned, next(iter(entries)))
    del entries[victim]
    # A displaced entry is not in the cache, so its pin goes too; otherwise
    # a later unpin could strip a fresh pin on a re-entry.
    state.pinned.pop(victim, None)
    if victim in state.main_memory or victim in state.discarded:
        raise ValueError(AccessibilityView.OVERLAP)
    if state.item_table[victim].kind is ItemKind.SURFACE_FORM:
        state.discarded.add(victim)
        fate = StoreEventKind.DISCARD
    else:
        state.main_memory.add(victim)
        fate = StoreEventKind.STORE
    return [StoreEvent(StoreEventKind.DISPLACE, victim), StoreEvent(fate, victim)]


def _admit(state: CacheState, movers: Sequence[str]) -> list[StoreEvent]:
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
            events.extend(evict_one(state))
    for item_id in movers:
        if state.capacity is not None and len(state.by_recency) >= state.capacity:
            events.extend(evict_one(state))
        _readmit(state, item_id, events)
    return events


def _readmit(state: CacheState, item_id: str, events: list[StoreEvent]) -> None:
    """Bring an absent item into the cache, wherever its record lives."""

    if item_id in state.main_memory:
        state.main_memory.remove(item_id)
        events.append(StoreEvent(StoreEventKind.RETRIEVE, item_id))
    elif item_id in state.discarded:
        state.discarded.remove(item_id)
        events.append(StoreEvent(StoreEventKind.RETRIEVE, item_id))
    if item_id in state.main_memory or item_id in state.discarded:
        raise ValueError(AccessibilityView.OVERLAP)
    state.step += 1
    state.by_recency[item_id] = state.step
    state.last_touch[item_id] = state.step


def _touch_cached(state: CacheState, item_ids: Sequence[str]) -> list[str]:
    """Touch the cached items among ``item_ids`` and return the absent ones,
    each once, in order of first mention."""

    absent: list[str] = []
    for item_id in dict.fromkeys(item_ids):
        if item_id in state.by_recency:
            _touch(state, item_id)
        else:
            absent.append(item_id)
    return absent


def insert_items(state: CacheState, item_ids: Sequence[str]) -> list[StoreEvent]:
    """Admit realized items at no effort: touch the ones already cached,
    then displace as needed and (re)enter the rest.

    Realization never fails; even a discarded surface form re-enters when
    it is uttered again.
    """

    return _admit(state, _touch_cached(state, item_ids))


def retrieve(
    state: CacheState,
    item_ids: Sequence[str],
    cost_per_item: int = DEFAULT_RETRIEVAL_COST,
) -> list[StoreEvent]:
    """Cued retrieval from main memory into the cache.

    Items already cached are touched for free; each item actually moved
    adds ``cost_per_item`` to the state's effort. Asking for a discarded
    item fails: the record no longer exists anywhere.
    """

    if state.capacity is not None and len(item_ids) > state.capacity:
        raise CueSetTooLarge(len(item_ids), state.capacity)
    for item_id in item_ids:
        if item_id in state.discarded:
            raise RetrievalFailure(item_id)
    movers = [i for i in _touch_cached(state, item_ids) if i in state.main_memory]
    state.effort += cost_per_item * len(movers)
    return _admit(state, movers)


def apply_events(
    state: CacheState,
    events_before: Sequence[SegmentEvent],
    transcript: Transcript,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> list[StoreEvent]:
    """Apply segment boundaries: pin on an expected return, unpin when the
    segment closes, and cue a retrieval of the resumed segment's material.

    An unbounded cache never displaces, so a pin could protect nothing: it
    takes none, and its closing segments find no pins to release.
    """

    log: list[StoreEvent] = []
    for event in events_before:
        if event.kind is EventKind.PUSH:
            if not event.expect_return or state.capacity is None:
                continue
            entries = state.by_recency
            unpinned = sorted(
                (i for i in entries if i not in state.pinned), key=entries.__getitem__
            )
            for item_id in unpinned:
                state.pinned[item_id] = event.segment_id
            log.extend(StoreEvent(StoreEventKind.PIN, i) for i in unpinned)
            continue

        if event.kind is EventKind.POP:
            log.extend(_unpin(state, event.segment_id))
            continue

        # A return also closes every segment opened inside the resumed one:
        # their pins go first, innermost first.
        pushed = transcript.push_positions
        owners = dict.fromkeys(state.pinned.values())
        inner = [s for s in owners if pushed[s] > pushed[event.segment_id]]
        for segment_id in sorted(inner, key=pushed.__getitem__, reverse=True):
            log.extend(_unpin(state, segment_id))
        log.extend(_unpin(state, event.segment_id))
        cue = _return_cue(state, transcript, event)
        log.extend(retrieve(state, cue, retrieval_cost))
    return log


def _unpin(state: CacheState, segment_id: str) -> list[StoreEvent]:
    """Release the pins taken when the segment was pushed, in pin order."""

    owned = [item_id for item_id, owner in state.pinned.items() if owner == segment_id]
    for item_id in owned:
        del state.pinned[item_id]
    return [StoreEvent(StoreEventKind.UNPIN, item_id) for item_id in owned]


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


def apply_iru(state: CacheState, restated: Sequence[str]) -> list[StoreEvent]:
    """Refresh or reinstate the content a redundant utterance re-realizes.

    Each restated item, as ``analyze_iru`` lists them (once each, in order
    of first mention), is touched if cached, moved in from main memory, or
    re-created from nothing if its surface record was discarded. Restating
    costs no effort: the speaker is doing the work.
    """

    return insert_items(state, restated)


def absorb(state: CacheState, utt: Utterance) -> list[StoreEvent]:
    """Admit the utterance's own items at no effort."""

    return insert_items(state, utt.items)


# A trace record's snapshot: cached items by recency, main memory
# retrievable at a cost, discarded records lost.
view = snapshot
