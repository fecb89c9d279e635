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
each mapped to the step that admitted it, and a touch moves an id to the
end. Displacement takes unpinned entries from least recently used, then
pinned ones, and a batch larger than the cache displaces its own
earliest members. Each pin is one entry of a map from the pinned item
to the segment whose push took it, in pin order; displacing the item
drops it. An admitted item has one record, in one store; the property
suites check that after every step.
Resolution reads the live stores, the immediate tier as a one-pass
iterator over the cached ids from most recently used; a trace record's
``AccessibilityView`` comes from ``core.snapshot``, which freezes main
memory and the discarded set anew only where they differ from the
previous record's.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import (
    DiscourseItem,
    EventKind,
    ItemKind,
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

# Read per displaced entry: before Python 3.12 a member read through its enum runs a hook.
_SURFACE_FORM, _RETRIEVE = ItemKind.SURFACE_FORM, StoreEventKind.RETRIEVE
_DISPLACE, _STORE, _DISCARD = StoreEventKind.DISPLACE, StoreEventKind.STORE, StoreEventKind.DISCARD


class CacheState:
    def __init__(
        self,
        capacity: int | None,
        item_table: Mapping[str, DiscourseItem],
        retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
    ) -> None:
        self.capacity = capacity  # None means unbounded
        self.retrieval_cost = retrieval_cost  # effort per item moved from main memory
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
    immediate = property(lambda self: reversed(self.by_recency))
    retrievable = property(lambda self: self.main_memory)
    lost = property(lambda self: self.discarded)


def new_cache(
    item_table: Mapping[str, DiscourseItem],
    capacity: int | None = DEFAULT_CAPACITY,
    retrieval_cost: int = DEFAULT_RETRIEVAL_COST,
) -> CacheState:
    if capacity is not None and capacity < 1:
        raise ValueError("capacity must be positive or None")
    return CacheState(capacity, item_table, retrieval_cost)


def evict(state: CacheState, count: int) -> list[StoreEvent]:
    """Displace ``count`` entries, picked in one scan of the cache from
    least recently used: unpinned ones first, then pinned ones when too
    few are unpinned.

    Entities and propositions are stored to main memory; surface forms
    are discarded and become unrecoverable by retrieval. ``_admit`` asks
    for at least one entry and at most as many as the cache holds.
    """

    entries, pinned, item_table = state.by_recency, state.pinned, state.item_table
    victims, held = [], []  # held: pinned entries passed, least recently used first
    for item_id in entries:
        if item_id in pinned:
            held.append(item_id)
        else:
            victims.append(item_id)
            if len(victims) == count:
                break
    else:
        victims += held[: count - len(victims)]
    new = tuple.__new__  # skips StoreEvent's Python-level __new__
    events: list[StoreEvent] = []
    for victim in victims:
        del entries[victim]
        # A displaced entry is not in the cache, so its pin goes too;
        # otherwise a later unpin could strip a fresh pin on a re-entry.
        pinned.pop(victim, None)
        if item_table[victim].kind is _SURFACE_FORM:
            state.discarded.add(victim)
            fate = _DISCARD
        else:
            state.main_memory.add(victim)
            fate = _STORE
        events += (new(StoreEvent, (_DISPLACE, victim)), new(StoreEvent, (fate, victim)))
    return events


def _admit(state: CacheState, movers: Sequence[str]) -> list[StoreEvent]:
    """Bring absent items in, wherever their records live, displacing as
    one up-front cascade.

    Running the cascade before any insertion keeps the displacement order
    honest: unpinned entries always drain before pinned ones. When the
    incoming batch alone exceeds capacity, its own earliest members are
    displaced in turn as the later ones arrive.
    """

    entries, capacity = state.by_recency, state.capacity
    count = 0 if capacity is None else min(len(entries) + len(movers) - capacity, len(entries))
    events = evict(state, count) if count > 0 else []
    main_memory, discarded, last_touch = state.main_memory, state.discarded, state.last_touch
    step = state.step
    for item_id in movers:
        if capacity is not None and len(entries) >= capacity:
            events += evict(state, 1)
        store = main_memory if item_id in main_memory else discarded
        if item_id in store:
            store.remove(item_id)
            events.append(tuple.__new__(StoreEvent, (_RETRIEVE, item_id)))
        step += 1
        entries[item_id] = last_touch[item_id] = step
    state.step = step
    return events


def _touch_cached(state: CacheState, item_ids: Sequence[str]) -> list[str]:
    """Touch the cached items among ``item_ids`` and return the absent ones,
    each once, in order of first mention."""

    entries, last_touch = state.by_recency, state.last_touch
    step = state.step
    absent: list[str] = []
    for item_id in dict.fromkeys(item_ids):
        if item_id in entries:
            step += 1
            entries[item_id] = entries.pop(item_id)  # keeps its admission step
            last_touch[item_id] = step
        else:
            absent.append(item_id)
    state.step = step
    return absent


def insert_items(state: CacheState, item_ids: Sequence[str]) -> list[StoreEvent]:
    """Admit realized items at no effort: touch the ones already cached,
    then displace as needed and (re)enter the rest.

    Realization never fails; even a discarded surface form re-enters when
    it is uttered again.
    """

    absent = _touch_cached(state, item_ids)
    return _admit(state, absent) if absent else []


def retrieve(state: CacheState, item_ids: Sequence[str]) -> list[StoreEvent]:
    """Cued retrieval from main memory into the cache.

    Items already cached are touched for free; each item actually moved
    adds the state's ``retrieval_cost`` to its effort. A discarded record no
    longer exists anywhere, so no caller asks for one: the return cue
    leaves them out, and a resolution retrieves what it found in main memory.
    """

    movers = [i for i in _touch_cached(state, item_ids) if i in state.main_memory]
    state.effort += state.retrieval_cost * len(movers)
    return _admit(state, movers)


def apply_events(
    state: CacheState, events_before: Sequence[SegmentEvent], transcript: Transcript
) -> list[StoreEvent]:
    """Apply segment boundaries: pin on an expected return, unpin when the
    segment closes, and cue a retrieval of the resumed segment's material
    at the state's retrieval cost. A return releases the pins of the
    resumed segment and of every segment pushed after it in
    ``Transcript.events``, innermost first.

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

        order = transcript.push_order
        resumed = order[event.segment_id]
        closed = [s for s in dict.fromkeys(state.pinned.values()) if order[s] >= resumed]
        for segment_id in sorted(closed, key=order.__getitem__, reverse=True):
            log.extend(_unpin(state, segment_id))
        log.extend(retrieve(state, _return_cue(state, transcript, event)))
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
