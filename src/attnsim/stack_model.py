"""Focus-space stack model of attentional state.

A new focus space is pushed when an embedded segment opens and popped when
it completes; accessibility covers every space still on the stack, ordered
top-to-bottom, while popped items are lost outright.

The replay fold owns one ``FocusStack`` and every step updates it in
place and returns the store events it generated, as the cache model's
steps do. The stack is a dict from each open segment's id to its focus
space, bottom first, with the implicit root space keyed ``None``; a space
is a dict of item ids in insertion order, most recently mentioned last.
An item lives in one space at a time, so a move touches only the items
moved, and a pop hands its spaces' items to the popped set as they are.
``parse`` admits only segment events that match the open segments, so
the stack applies them unchecked. Resolution reads the live stores, the
immediate tier as a one-pass iterator over the spaces, top first and each
from its most recent item; a trace record's ``AccessibilityView`` comes
from ``core.snapshot``, which freezes the popped set anew only where it
differs from the previous record's.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .core import (
    EventKind,
    SegmentEvent,
    StoreEvent,
    StoreEventKind,
    Transcript,
    Utterance,
    snapshot,
)


class FocusStack:
    def __init__(self, spaces: dict[str | None, dict[str, None]]) -> None:
        # Each open segment's id (None for the root) mapped to its space's
        # items, bottom space first.
        self.spaces = spaces
        self.popped: set[str] = set()

    # The stores as resolution reads them, stacked ids top space first.
    immediate = property(
        lambda self: chain.from_iterable(map(reversed, reversed(self.spaces.values())))
    )
    # The stack never retrieves: popped material is simply lost.
    retrievable = frozenset()
    effort = 0
    lost = property(lambda self: self.popped)
    # The top space's items.
    top = property(lambda self: next(reversed(self.spaces.values())))


def new_stack() -> FocusStack:
    # An implicit root space hosts utterances preceding any push.
    return FocusStack(spaces={None: {}})


def apply_event(stack: FocusStack, event: SegmentEvent) -> list[StoreEvent]:
    """Apply one segment boundary to the stack, logging each focus space
    pushed and each one popped (innermost first)."""

    if event.kind is EventKind.PUSH:
        stack.spaces[event.segment_id] = {}
        return [StoreEvent(StoreEventKind.PUSH_SPACE, event.segment_id)]

    if event.kind is EventKind.POP:
        return _pop_spaces(stack, 1)

    # Return: pop everything above the target segment.
    open_ids = list(stack.spaces)
    return _pop_spaces(stack, len(open_ids) - 1 - open_ids.index(event.segment_id))


def apply_events(
    stack: FocusStack, events_before: Sequence[SegmentEvent], transcript: Transcript
) -> list[StoreEvent]:
    """Apply segment boundaries in order. The stack never retrieves, so
    the transcript goes unused."""

    log: list[StoreEvent] = []
    for event in events_before:
        log += apply_event(stack, event)
    return log


def _pop_spaces(stack: FocusStack, count: int) -> list[StoreEvent]:
    log: list[StoreEvent] = []
    for _ in range(count):
        segment_id, items = stack.spaces.popitem()
        stack.popped.update(items)
        log.append(StoreEvent(StoreEventKind.POP_SPACE, segment_id))
    return log


def apply_utterance(stack: FocusStack, utt: Utterance) -> None:
    """Move the utterance's items to the end of the top space.

    Items live in a single space: a re-mention relocates the item rather
    than duplicating it, and clears it from the popped set. A repeated
    item ends where its last mention puts it.
    """

    top = stack.top
    for item_id in utt.items:
        if item_id in stack.popped:
            stack.popped.remove(item_id)
        else:
            for space in stack.spaces.values():
                if item_id in space:
                    del space[item_id]
                    break
        top[item_id] = None


def apply_iru(stack: FocusStack, restated: Sequence[str]) -> list[StoreEvent]:
    """A restatement leaves the stack as it is: its items enter with the
    utterance, like any other."""

    return []


def absorb(stack: FocusStack, utt: Utterance) -> list[StoreEvent]:
    """Absorb an utterance's items; moving items between spaces is not a
    store event."""

    apply_utterance(stack, utt)
    return []


# A trace record's snapshot: all stacked spaces are accessible, top space
# first and each space's items most-recent-first; the model has no
# retrieval notion, so nothing is retrievable and popped items are lost.
view = snapshot
