"""Focus-space stack model of attentional state.

A new focus space is pushed when an embedded segment opens and popped when
it completes; accessibility covers every space still on the stack, ordered
top-to-bottom, while popped items are lost outright.

Under the stack, hierarchical and linear recency coincide: items enter
only the top space, and a lower space becomes the top again only after
every space above it has been popped. So the open spaces, read bottom
first, are one sequence of stacked items in order of last mention. The
``FocusStack`` the replay fold updates in place keeps the open segments'
ids and one insertion-ordered dict from each stacked item to its space's
depth; a mention moves its item to the end at the top depth, and a pop
takes entries off the end while their space is closing. ``parse`` admits
only segment events that match the open segments, so the stack applies
them unchecked. Resolution reads the live stores, the immediate tier as
the dict read backwards; a trace record's ``AccessibilityView`` comes
from ``core.snapshot``, which freezes the popped set anew only where it
differs from the previous record's.
"""

from __future__ import annotations

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
    def __init__(self) -> None:
        # The open segments' ids, bottom first; an implicit root space,
        # None, hosts utterances preceding any push.
        self.open: list[str | None] = [None]
        # Each stacked item mapped to its space's index in ``open``, least
        # recently mentioned first; the depths never decrease.
        self.stacked: dict[str, int] = {}
        self.popped: set[str] = set()

    # The stores as resolution reads them, stacked ids most recent first.
    immediate = property(lambda self: reversed(self.stacked))
    # The stack never retrieves: popped material is simply lost.
    retrievable = frozenset()
    effort = 0
    lost = property(lambda self: self.popped)


new_stack = FocusStack


def apply_event(stack: FocusStack, event: SegmentEvent) -> list[StoreEvent]:
    """Apply one segment boundary to the stack, logging each focus space
    pushed and each one popped (innermost first)."""

    if event.kind is EventKind.PUSH:
        stack.open.append(event.segment_id)
        return [StoreEvent(StoreEventKind.PUSH_SPACE, event.segment_id)]

    if event.kind is EventKind.POP:
        return _pop_spaces(stack, len(stack.open) - 1)

    # Return: pop everything above the target segment.
    return _pop_spaces(stack, stack.open.index(event.segment_id) + 1)


def apply_events(
    stack: FocusStack, events_before: Sequence[SegmentEvent], transcript: Transcript
) -> list[StoreEvent]:
    """Apply segment boundaries in order. The stack never retrieves, so
    the transcript goes unused."""

    log: list[StoreEvent] = []
    for event in events_before:
        log += apply_event(stack, event)
    return log


def _pop_spaces(stack: FocusStack, keep: int) -> list[StoreEvent]:
    # The popped spaces' items are the entries at the end of ``stacked``
    # whose depth is ``keep`` or more.
    stacked = stack.stacked
    while stacked:
        item_id, depth = stacked.popitem()
        if depth < keep:
            stacked[item_id] = depth
            break
        stack.popped.add(item_id)
    closed = stack.open[keep:]
    del stack.open[keep:]
    return [StoreEvent(StoreEventKind.POP_SPACE, segment_id) for segment_id in reversed(closed)]


def apply_utterance(stack: FocusStack, utt: Utterance) -> None:
    """Move the utterance's items to the end of the top space.

    A re-mention relocates the item rather than duplicating it, and
    clears it from the popped set. A repeated item ends where its last
    mention puts it.
    """

    stacked, top = stack.stacked, len(stack.open) - 1
    for item_id in utt.items:
        stacked.pop(item_id, None)
        stacked[item_id] = top
    stack.popped.difference_update(utt.items)


def apply_iru(stack: FocusStack, restated: Sequence[str]) -> list[StoreEvent]:
    """A restatement leaves the stack as it is: its items enter with the
    utterance, like any other."""

    return []


def absorb(stack: FocusStack, utt: Utterance) -> list[StoreEvent]:
    """Absorb an utterance's items; moving items between spaces is not a
    store event."""

    apply_utterance(stack, utt)
    return []


# A trace record's snapshot: all stacked items are accessible, most
# recently mentioned first; the model has no retrieval notion, so nothing
# is retrievable and popped items are lost.
view = snapshot
