"""Focus-space stack model of attentional state.

A new focus space is pushed when an embedded segment opens and popped when
it completes; accessibility covers every space still on the stack, ordered
top-to-bottom, while popped items are lost outright. The stack is a value:
every operation returns a new state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    AccessibilityView,
    EventKind,
    SegmentEvent,
    StoreEvent,
    StoreEventKind,
    Transcript,
    Utterance,
)


class StructureError(RuntimeError):
    """Segment events that do not match the open-segment structure.

    Raised when a pop or return names a segment that is absent or not in
    the required position; a well-formed transcript never triggers this.
    """


@dataclass(frozen=True)
class FocusSpace:
    """One segment's grouping of items, most recently mentioned last."""

    segment_id: str | None
    items: tuple[str, ...] = ()


@dataclass(frozen=True)
class FocusStack:
    spaces: tuple[FocusSpace, ...]
    popped: frozenset[str] = frozenset()

    @property
    def top(self) -> FocusSpace:
        return self.spaces[-1]


def new_stack() -> FocusStack:
    # An implicit root space hosts utterances preceding any push.
    return FocusStack(spaces=(FocusSpace(segment_id=None),))


def _open_ids(stack: FocusStack) -> list[str | None]:
    return [space.segment_id for space in stack.spaces]


def apply_event(stack: FocusStack, event: SegmentEvent) -> FocusStack:
    """Apply one segment boundary to the stack."""

    if event.kind is EventKind.PUSH:
        if event.segment_id in _open_ids(stack):
            raise StructureError(f"segment {event.segment_id!r} already open")
        return FocusStack(
            spaces=stack.spaces + (FocusSpace(segment_id=event.segment_id),),
            popped=stack.popped,
        )

    if event.kind is EventKind.POP:
        if stack.top.segment_id != event.segment_id:
            raise StructureError(
                f"pop of {event.segment_id!r} does not match top segment "
                f"{stack.top.segment_id!r}"
            )
        return _pop_spaces(stack, 1)

    # Return: pop everything above the target segment.
    ids = _open_ids(stack)
    if event.segment_id not in ids:
        raise StructureError(f"return to unknown segment {event.segment_id!r}")
    depth = len(ids) - 1 - ids.index(event.segment_id)
    return _pop_spaces(stack, depth)


def apply_events(
    stack: FocusStack,
    events_before: Sequence[SegmentEvent],
    transcript: Transcript,
    retrieval_cost: int = 0,
) -> tuple[FocusStack, list[StoreEvent]]:
    """Apply segment boundaries, logging each focus space pushed and each
    one popped (innermost first). The stack never retrieves, so the
    transcript and the retrieval cost go unused."""

    log: list[StoreEvent] = []
    for event in events_before:
        before = stack.spaces
        stack = apply_event(stack, event)
        if event.kind is EventKind.PUSH:
            log.append(StoreEvent(StoreEventKind.PUSH_SPACE, event.segment_id))
        else:
            popped = before[len(stack.spaces) :]
            log.extend(
                StoreEvent(StoreEventKind.POP_SPACE, space.segment_id)
                for space in reversed(popped)
            )
    return stack, log


def _pop_spaces(stack: FocusStack, count: int) -> FocusStack:
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
    return FocusStack(spaces=remaining, popped=stack.popped | set(newly_popped))


def apply_utterance(stack: FocusStack, utt: Utterance) -> FocusStack:
    """Move the utterance's items to the end of the top space.

    Items live in a single space: a re-mention relocates the item rather
    than duplicating it, and clears it from the popped set.
    """

    if not utt.items:
        return stack
    # A repeated item ends where its last mention puts it.
    arriving = tuple(reversed(dict.fromkeys(reversed(utt.items))))
    moved = frozenset(arriving)
    spaces = [
        space
        if moved.isdisjoint(space.items)
        else FocusSpace(
            segment_id=space.segment_id,
            items=tuple(i for i in space.items if i not in moved),
        )
        for space in stack.spaces
    ]
    top = spaces[-1]
    spaces[-1] = FocusSpace(segment_id=top.segment_id, items=top.items + arriving)
    popped = stack.popped if moved.isdisjoint(stack.popped) else stack.popped - moved
    return FocusStack(spaces=tuple(spaces), popped=popped)


def apply_iru(
    stack: FocusStack, utt: Utterance, transcript: Transcript
) -> tuple[FocusStack, list[StoreEvent]]:
    """A restatement leaves the stack as it is: its items enter with the
    utterance, like any other."""

    return stack, []


def absorb(stack: FocusStack, utt: Utterance) -> tuple[FocusStack, list[StoreEvent]]:
    """Absorb an utterance's items; moving items between spaces is not a
    store event."""

    return apply_utterance(stack, utt), []


def view(stack: FocusStack) -> AccessibilityView:
    """Accessibility under the stack model.

    All stacked spaces are accessible, top space first and each space's
    items most-recent-first; the model has no retrieval notion, so nothing
    is retrievable and popped items are lost.
    """

    immediate: list[str] = []
    for space in reversed(stack.spaces):
        immediate.extend(reversed(space.items))
    return AccessibilityView(
        immediate=tuple(immediate),
        retrievable=frozenset(),
        lost=stack.popped,
    )
