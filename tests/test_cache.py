"""Cache-model mechanics: eviction, retrieval, pinning, and the view."""

from __future__ import annotations

import pytest

from attnsim.cache_model import (
    CacheState,
    CueSetTooLarge,
    RetrievalFailure,
    absorb,
    apply_events,
    evict_one,
    insert_items,
    new_cache,
    retrieve,
    view,
)
from attnsim.core import (
    DiscourseItem,
    EventKind,
    ItemKind,
    SegmentEvent,
    StoreEvent,
    StoreEventKind,
    Transcript,
    Utterance,
)

from attnsim.transcript_io import parse

from conftest import cache_step
from propsuite import check_cache_invariants

EMPTY = Transcript(dialogue_id="unit")


def table(*entries):
    items = {}
    for entry in entries:
        if isinstance(entry, tuple):
            item_id, kind = entry
        else:
            item_id, kind = entry, ItemKind.ENTITY
        if kind is ItemKind.SURFACE_FORM:
            items[item_id] = DiscourseItem(id=item_id, kind=kind, realizes="host")
        else:
            items[item_id] = DiscourseItem(id=item_id, kind=kind)
    return items


def state_with(entries, item_table, capacity=7, pinned=None):
    """A state caching ``(item id, last use)`` entries, each admitted at its
    last use, with the given map from pinned item to pinning segment."""

    state = CacheState(capacity, item_table)
    state.by_recency = dict(sorted(entries, key=lambda e: e[1]))
    state.step = max((use for _, use in entries), default=0)
    state.pinned = pinned or {}
    state.last_touch = dict(entries)
    return state


def utterance(*items, index=0, utt_id=None, iru=()):
    return Utterance(
        id=utt_id or f"u{index}",
        speaker="A",
        index=index,
        items=tuple(items),
        iru_antecedents=tuple(iru),
    )


def fold_cache(transcript, upto_id, capacity=7):
    state = new_cache(transcript.item_table, capacity)
    for utt in transcript.utterances:
        cache_step(state, utt, transcript.events_at(utt.index), transcript)
        if utt.id == upto_id:
            break
    return state


def test_evict_one_takes_least_recently_used():
    items = table("a", "b", "c")
    state = state_with([("a", 1), ("b", 2), ("c", 3)], items)
    assert evict_one(state) == [
        StoreEvent(StoreEventKind.DISPLACE, "a"),
        StoreEvent(StoreEventKind.STORE, "a"),
    ]
    assert "a" in state.main_memory
    assert tuple(state.by_recency) == ("b", "c")


def test_evict_one_prefers_unpinned():
    items = table("a", "b")
    state = state_with([("a", 1), ("b", 2)], items, pinned={"a": "seg"})
    displaced, _ = evict_one(state)
    assert displaced.target == "b"
    assert tuple(state.by_recency) == ("a",)
    assert state.pinned == {"a": "seg"}


def test_evict_one_discards_surface_forms():
    items = table(("host", ItemKind.PROPOSITION), ("s", ItemKind.SURFACE_FORM))
    state = state_with([("s", 1)], items, pinned={"s": "seg"})
    assert evict_one(state) == [
        StoreEvent(StoreEventKind.DISPLACE, "s"),
        StoreEvent(StoreEventKind.DISCARD, "s"),
    ]
    assert "s" in state.discarded
    assert "s" not in state.main_memory
    assert state.pinned == {}


@pytest.mark.parametrize(
    "stores", [("main_memory",), ("discarded",), ("main_memory", "discarded")]
)
def test_evict_one_rejects_a_victim_already_filed(stores):
    """Eviction checks the item it files, so a record left behind in main
    memory or the discarded set surfaces at the step that would file it
    twice, not at a later view."""

    state = state_with([("a", 1), ("b", 2)], table("a", "b"))
    for store in stores:
        getattr(state, store).add("a")
    with pytest.raises(ValueError, match="pairwise disjoint"):
        evict_one(state)


def test_readmit_rejects_an_item_filed_in_two_stores():
    state = new_cache(table("x"))
    state.main_memory.add("x")
    state.discarded.add("x")
    with pytest.raises(ValueError, match="pairwise disjoint"):
        insert_items(state, ["x"])


def test_evict_empty_cache_is_internal_error():
    state = new_cache(table("a"))
    with pytest.raises(RuntimeError):
        evict_one(state)


def test_retrieve_moves_item_in_at_cost():
    items = table("x")
    state = new_cache(items, capacity=3)
    insert_items(state, ["x"])
    # Push x out to main memory by hand via eviction.
    evict_one(state)
    assert "x" in state.main_memory
    assert state.effort == 0
    events = retrieve(state, ["x"], 1)
    assert state.effort == 1
    assert "x" in state.by_recency
    assert [e.kind for e in events] == [StoreEventKind.RETRIEVE]


def test_retrieve_touches_cached_items_for_free():
    items = table("x", "y")
    state = new_cache(items, capacity=3)
    insert_items(state, ["x", "y"])
    before = state.last_touch["x"]
    events = retrieve(state, ["x"], 1)
    assert state.effort == 0 and events == []
    assert state.last_touch["x"] > before


def test_retrieve_discarded_item_fails(dialogue_b):
    state = fold_cache(dialogue_b, upto_id="7")
    assert "s1" in state.discarded
    with pytest.raises(RetrievalFailure) as exc:
        retrieve(state, ["s1"], 1)
    assert exc.value.item_id == "s1"


def test_retrieve_cue_set_capped_by_capacity():
    items = table("a", "b", "c")
    state = new_cache(items, capacity=2)
    with pytest.raises(CueSetTooLarge):
        retrieve(state, ["a", "b", "c"], 1)


def test_absorb_inserts_items():
    items = table("a", "b")
    state = new_cache(items, capacity=7)
    events = absorb(state, utterance("a", "b"))
    assert tuple(state.by_recency) == ("a", "b")
    assert state.effort == 0
    assert events == []


def test_dialogue_a_retains_opening_material(dialogue_a):
    state = fold_cache(dialogue_a, upto_id="7")
    assert "p1" in state.pinned and "daughter" in state.pinned
    assert state.effort == 0
    # Nothing has been displaced anywhere in the run.
    assert state.main_memory == frozenset()
    assert state.discarded == frozenset()


def test_dialogue_b_interruption_floods_the_cache(dialogue_b):
    state = fold_cache(dialogue_b, upto_id="6.3")
    assert "s1" in state.discarded
    assert "daughter" in state.main_memory
    assert "p1" in state.main_memory
    check_cache_invariants(state)


def test_view_of_fresh_state_is_empty():
    snapshot = view(new_cache(table("a")))
    assert snapshot.immediate == ()
    assert snapshot.retrievable == frozenset()
    assert snapshot.lost == frozenset()


def test_completed_segment_items_stay_until_displaced():
    items = table("a", "b")
    state = new_cache(items, capacity=7)
    events = [
        SegmentEvent(kind=EventKind.PUSH, segment_id="S", position=0),
    ]
    cache_step(state, utterance("a", "b"), events, EMPTY)
    done = [SegmentEvent(kind=EventKind.POP, segment_id="S", position=1)]
    cache_step(state, utterance(index=1), done, EMPTY)
    assert set(view(state).immediate) == {"a", "b"}


def test_dialogue_c_certificate_material_retrievable_by_21(dialogue_c):
    state = fold_cache(dialogue_c, upto_id="21")
    snapshot = view(state)
    for item_id in ("p_sixmo", "money", "p_spread"):
        assert item_id in snapshot.retrievable
        assert item_id not in snapshot.immediate


def test_re_realization_recovers_discarded_surface(dialogue_b):
    state = fold_cache(dialogue_b, upto_id="7")
    assert "s1" in state.discarded
    events = insert_items(state, ["s1"])
    assert "s1" in state.by_recency
    assert "s1" not in state.discarded
    assert any(e.kind is StoreEventKind.RETRIEVE and e.target == "s1" for e in events)


def test_iru_reinstates_antecedent_items_at_no_cost(dialogue_c):
    state = fold_cache(dialogue_c, upto_id="22a")
    assert "p_spread" in state.main_memory
    effort_before = state.effort
    utt_22b = dialogue_c.utterance_by_id("22b")
    events = cache_step(state, utt_22b, (), dialogue_c)
    assert "p_spread" in state.by_recency
    assert state.effort == effort_before
    assert any(e.kind is StoreEventKind.RETRIEVE and e.target == "p_spread" for e in events)


def test_return_triggers_costed_cued_retrieval():
    text = (
        "DIALOGUE r\n"
        "PUSH G\n"
        "UTT g1 speaker=A\n"
        "ITEM a kind=entity gender=n num=sg\n"
        "ITEM b kind=entity gender=n num=sg\n"
        "PUSH H\n"
        "UTT h1 speaker=B\n"
        "ITEM c kind=entity gender=n num=sg\n"
        "ITEM d kind=entity gender=n num=sg\n"
        "ITEM e kind=entity gender=n num=sg\n"
        "RETURN G\n"
        "UTT r1 speaker=A\n"
    )
    transcript = parse(text)
    state = new_cache(transcript.item_table, capacity=3)
    for utt in transcript.utterances[:2]:
        cache_step(state, utt, transcript.events_at(utt.index), transcript)
    # The interruption displaced the opening items.
    assert {"a", "b"} <= state.main_memory
    final = transcript.utterances[2]
    events = cache_step(state, final, transcript.events_at(final.index), transcript)
    retrieved = [e.target for e in events if e.kind is StoreEventKind.RETRIEVE]
    # Budget is capacity - 1, most recently used first.
    assert retrieved == ["b", "a"][: state.capacity - 1]
    assert state.effort == len(retrieved)


def test_return_releases_pins_of_the_segments_it_closes():
    # b's and c's pushes pin their parents' material; RETURN a closes both
    # segments, so both pin records go, innermost first, and the closed
    # segments' items no longer outlast a's own.
    lines = ["DIALOGUE leak", "PUSH a"]
    for utt_id, item_id, boundary in (
        ("u1", "x", "PUSH b expect-return"),
        ("u2", "y", "PUSH c expect-return"),
        ("u3", "w", "RETURN a"),
        ("u4", "z", "POP a"),
        ("u5", "n5", None),
        ("u6", "n6", None),
        ("u7", "n7", None),
        ("u8", "n8", None),
    ):
        lines += [f"UTT {utt_id} speaker=A", f"ITEM {item_id} kind=entity"]
        if boundary:
            lines.append(boundary)
    transcript = parse("\n".join(lines) + "\n")
    state = new_cache(transcript.item_table, capacity=4)
    events = []
    for utt in transcript.utterances:
        events += cache_step(state, utt, transcript.events_at(utt.index), transcript)
        check_cache_invariants(state)
    assert [e.target for e in events if e.kind is StoreEventKind.UNPIN] == ["y", "x"]
    assert state.pinned == {}
    displaced = [e.target for e in events if e.kind is StoreEventKind.DISPLACE]
    # The return's cue touched x.
    assert displaced == ["y", "w", "x", "z"]


def test_an_old_segment_does_not_release_a_pin_again():
    # S's pin on a goes when a is displaced; a's re-entry is pinned by T,
    # so the return to S releases it once, as T's, and S holds nothing.
    push_s, push_t, return_s = (
        SegmentEvent(EventKind.PUSH, "S", 1, expect_return=True),
        SegmentEvent(EventKind.PUSH, "T", 4, expect_return=True),
        SegmentEvent(EventKind.RETURN, "S", 5),
    )
    transcript = Transcript(dialogue_id="unit", events=(push_s, push_t, return_s))
    state = new_cache(table("a", "b"), capacity=1)
    events = insert_items(state, ["a"])
    events += apply_events(state, [push_s], transcript)
    events += insert_items(state, ["b"])
    events += insert_items(state, ["a"])
    events += apply_events(state, [push_t], transcript)
    events += apply_events(state, [return_s], transcript)
    assert [f"{e.kind.value} {e.target}" for e in events] == [
        "Pin a",
        "Displace a",
        "Store a",
        "Displace b",
        "Store b",
        "Retrieve a",
        "Pin a",
        "Unpin a",
    ]
    assert state.pinned == {}
    check_cache_invariants(state)


def test_infinite_capacity_never_displaces():
    items = table(*[f"x{i}" for i in range(15)])
    state = new_cache(items, capacity=None)
    for index, item_id in enumerate(sorted(items)):
        events = cache_step(state, utterance(item_id, index=index), (), EMPTY)
        assert all(e.kind is not StoreEventKind.DISPLACE for e in events)
    assert len(state.by_recency) == 15
    assert state.effort == 0


def test_unbounded_cache_takes_no_pins():
    state = new_cache(table("a", "b"), capacity=None)
    insert_items(state, ["a", "b"])
    push = SegmentEvent(
        kind=EventKind.PUSH, segment_id="S", position=0, expect_return=True
    )
    assert apply_events(state, [push], EMPTY) == []
    assert state.pinned == {}
    pop = SegmentEvent(kind=EventKind.POP, segment_id="S", position=1)
    assert apply_events(state, [pop], EMPTY) == []
    check_cache_invariants(state)


@pytest.mark.parametrize("pin_owners", [{"S": ("a",)}, None])
def test_check_invariants_rejects_pins_in_an_unbounded_cache(pin_owners):
    """``pin_owners`` maps each segment to the items it pins; ``None`` has
    an expect-return push on a bounded cache take the pins instead."""

    if pin_owners is None:
        state = state_with([("a", 1)], table("a"))
        push = SegmentEvent(
            kind=EventKind.PUSH, segment_id="S", position=0, expect_return=True
        )
        apply_events(state, [push], EMPTY)
        assert state.pinned == {"a": "S"}
    else:
        pinned = {item: seg for seg, items in pin_owners.items() for item in items}
        state = state_with([("a", 1)], table("a"), pinned=pinned)
    state.capacity = None
    with pytest.raises(AssertionError, match="unbounded cache holds pins"):
        check_cache_invariants(state)


def test_check_invariants_rejects_a_pin_on_an_uncached_item():
    state = state_with([("a", 1)], table("a", "b"), pinned={"a": "S", "b": "S"})
    state.main_memory.add("b")
    with pytest.raises(AssertionError, match="pin on an uncached item"):
        check_cache_invariants(state)


def test_pin_scope_is_cache_contents_at_push_time():
    items = table("a", "b", "c")
    state = new_cache(items, capacity=7)
    insert_items(state, ["a"])
    push = SegmentEvent(
        kind=EventKind.PUSH, segment_id="S", position=0, expect_return=True
    )
    events = apply_events(state, [push], EMPTY)
    assert [e.target for e in events if e.kind is StoreEventKind.PIN] == ["a"]
    insert_items(state, ["b"])
    assert tuple(state.by_recency) == ("a", "b")
    assert state.pinned == {"a": "S"}
    pop = SegmentEvent(kind=EventKind.POP, segment_id="S", position=1)
    events = apply_events(state, [pop], EMPTY)
    assert [e.target for e in events if e.kind is StoreEventKind.UNPIN] == ["a"]
    assert state.pinned == {}
    check_cache_invariants(state)


def test_pins_follow_admission_order_not_recency():
    state = new_cache(table("a", "b"), capacity=7)
    insert_items(state, ["a", "b"])
    insert_items(state, ["a"])
    assert view(state).immediate == ("a", "b")
    push = SegmentEvent(
        kind=EventKind.PUSH, segment_id="S", position=0, expect_return=True
    )
    events = apply_events(state, [push], EMPTY)
    assert [(e.kind, e.target) for e in events] == [
        (StoreEventKind.PIN, "a"),
        (StoreEventKind.PIN, "b"),
    ]
    pop = SegmentEvent(kind=EventKind.POP, segment_id="S", position=1)
    events = apply_events(state, [pop], EMPTY)
    assert [e.target for e in events if e.kind is StoreEventKind.UNPIN] == ["a", "b"]
    check_cache_invariants(state)
