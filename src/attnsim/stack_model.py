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
moved, each checked to have at most one home, and a pop hands its
spaces' items to the popped set as they are. Resolution reads the live
stores; a trace record's ``AccessibilityView`` comes from ``core.snapshot``,
which freezes the popped set anew only where it differs from the previous
record's.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    AccessibilityView,
    SalienceOrder,
    EventKind,
    SegmentEvent,
    StoreEvent,
    StoreEventKind,
    Transcript,
    Utterance,
    snapshot,
)


class StructureError(RuntimeError):
    """Segment events that do not match the open-segment structure.

    Raised when a pop or return names a segment that is absent or not in
    the required position; a well-formed transcript never triggers this.
    """


class FocusStack:
    def __init__(self, spaces: dict[str | None, dict[str, None]]) -> None:
        # Each open segment's id (None for the root) mapped to its space's
        # items, bottom space first.
        self.spaces = spaces
        self.popped: set[str] = set()

    # The stores as resolution reads them, stacked ids top space first.
    immediate = property(lambda self: SalienceOrder(self.spaces.values()))
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
        if event.segment_id in stack.spaces:
            raise StructureError(f"segment {event.segment_id!r} already open")
        stack.spaces[event.segment_id] = {}
        return [StoreEvent(StoreEventKind.PUSH_SPACE, event.segment_id)]

    if event.kind is EventKind.POP:
        top_id = next(reversed(stack.spaces))
        if top_id != event.segment_id:
            raise StructureError(
                f"pop of {event.segment_id!r} does not match top segment {top_id!r}"
            )
        return _pop_spaces(stack, 1)

    # Return: pop everything above the target segment.
    if event.segment_id not in stack.spaces:
        raise StructureError(f"return to unknown segment {event.segment_id!r}")
    open_ids = list(stack.spaces)
    return _pop_spaces(stack, len(open_ids) - 1 - open_ids.index(event.segment_id))


def apply_events(
    stack: FocusStack,
    events_before: Sequence[SegmentEvent],
    transcript: Transcript,
    retrieval_cost: int = 0,
) -> list[StoreEvent]:
    """Apply segment boundaries in order. The stack never retrieves, so
    the transcript and the retrieval cost go unused."""

    return [logged for event in events_before for logged in apply_event(stack, event)]


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
    item ends where its last mention puts it; one found twice raises.
    """

    top = stack.top
    for item_id in utt.items:
        homes = [space for space in stack.spaces.values() if item_id in space]
        popped = item_id in stack.popped
        if len(homes) + popped > 1:
            raise ValueError(AccessibilityView.OVERLAP)
        if popped:
            stack.popped.remove(item_id)
        elif homes:
            del homes[0][item_id]
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
