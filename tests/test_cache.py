"""Cache-model mechanics: eviction, retrieval, pinning, and the view."""

from __future__ import annotations

import pytest

from attnsim import cache_model
from attnsim.cache_model import (
    CacheState,
    absorb,
    apply_events,
    evict,
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

from attnsim.driver import ModelKind, replay
from attnsim.transcript_io import parse

from conftest import FIXTURES, cache_step, load_fixture
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
    assert evict(state, 1) == [
        StoreEvent(StoreEventKind.DISPLACE, "a"),
        StoreEvent(StoreEventKind.STORE, "a"),
    ]
    assert "a" in state.main_memory
    assert tuple(state.by_recency) == ("b", "c")


def test_evict_one_prefers_unpinned():
    items = table("a", "b")
    state = state_with([("a", 1), ("b", 2)], items, pinned={"a": "seg"})
    displaced, _ = evict(state, 1)
    assert displaced.target == "b"
    assert tuple(state.by_recency) == ("a",)
    assert state.pinned == {"a": "seg"}


def test_evict_one_discards_surface_forms():
    items = table(("host", ItemKind.PROPOSITION), ("s", ItemKind.SURFACE_FORM))
    state = state_with([("s", 1)], items, pinned={"s": "seg"})
    assert evict(state, 1) == [
        StoreEvent(StoreEventKind.DISPLACE, "s"),
        StoreEvent(StoreEventKind.DISCARD, "s"),
    ]
    assert "s" in state.discarded
    assert "s" not in state.main_memory
    assert state.pinned == {}


@pytest.mark.parametrize(
    "pinned, count, victims",
    [
        ({}, 1, ["a"]),
        ({}, 2, ["a", "s"]),
        ({}, 4, ["a", "s", "p", "b"]),
        ({"p": "seg", "a": "seg"}, 1, ["s"]),
        ({"p": "seg", "a": "seg"}, 2, ["s", "b"]),
        ({"p": "seg", "a": "seg"}, 4, ["s", "b", "a", "p"]),
    ],
)
def test_evict_takes_unpinned_then_pinned_from_least_recently_used(pinned, count, victims):
    items = table("a", "b", ("p", ItemKind.PROPOSITION), ("s", ItemKind.SURFACE_FORM))
    state = state_with([("b", 4), ("a", 1), ("p", 3), ("s", 2)], items, 4, dict(pinned))
    fates = {"a": "Store", "b": "Store", "p": "Store", "s": "Discard"}
    assert logged(evict(state, count)) == [
        line for victim in victims for line in (f"Displace {victim}", f"{fates[victim]} {victim}")
    ]
    assert tuple(state.by_recency) == tuple(i for i in "aspb" if i not in victims)
    assert state.pinned == {i: "seg" for i in pinned if i not in victims}
    assert state.main_memory == set(victims) - {"s"}
    assert state.discarded == set(victims) & {"s"}
    check_cache_invariants(state)


@pytest.mark.parametrize(
    "stores", [("main_memory",), ("discarded",), ("main_memory", "discarded")]
)
def test_check_invariants_rejects_a_victim_already_filed(stores):
    """A cached item with a record left behind in main memory or the
    discarded set: the state the next eviction would file twice."""

    state = state_with([("a", 1), ("b", 2)], table("a", "b"))
    for store in stores:
        getattr(state, store).add("a")
    with pytest.raises(AssertionError, match="stores overlap"):
        check_cache_invariants(state)


def test_check_invariants_rejects_an_item_filed_in_two_stores():
    state = new_cache(table("x"))
    state.main_memory.add("x")
    state.discarded.add("x")
    with pytest.raises(AssertionError, match="stores overlap"):
        check_cache_invariants(state)


def test_retrieve_moves_item_in_at_cost():
    items = table("x")
    state = new_cache(items, capacity=3)
    insert_items(state, ["x"])
    # Push x out to main memory by hand via eviction.
    evict(state, 1)
    assert "x" in state.main_memory
    assert state.effort == 0
    events = retrieve(state, ["x"])
    assert state.effort == 1
    assert "x" in state.by_recency
    assert [e.kind for e in events] == [StoreEventKind.RETRIEVE]


def test_retrieve_touches_cached_items_for_free():
    items = table("x", "y")
    state = new_cache(items, capacity=3)
    insert_items(state, ["x", "y"])
    before = state.last_touch["x"]
    events = retrieve(state, ["x"])
    assert state.effort == 0 and events == []
    assert state.last_touch["x"] > before


def logged(events):
    return [f"{event.kind.value} {event.target}" for event in events]


def test_a_batch_larger_than_the_cache_displaces_unpinned_then_pinned_then_itself():
    items = table("a", "b", "c", "m", "x", "y", "z", ("s", ItemKind.SURFACE_FORM))
    state = state_with([("a", 1), ("b", 2), ("c", 3)], items, capacity=3)
    state.pinned = {"c": "seg", "a": "seg"}  # pin order is not recency order
    state.main_memory = {"m"}
    # Five absent items, two more than the cache holds.
    events = insert_items(state, ["s", "m", "x", "y", "z"])
    assert logged(events) == [
        # The up-front cascade: the unpinned entry, then the pinned ones
        # from least recently used.
        "Displace b",
        "Store b",
        "Displace a",
        "Store a",
        "Displace c",
        "Store c",
        "Retrieve m",
        # The batch's own earliest members make room for its last two.
        "Displace s",
        "Discard s",
        "Displace m",
        "Store m",
    ]
    assert tuple(state.by_recency) == ("x", "y", "z")
    assert state.pinned == {}
    assert state.main_memory == {"a", "b", "c", "m"}
    assert state.discarded == {"s"}
    check_cache_invariants(state)


def test_retrieving_more_than_the_cache_holds_displaces_in_one_order():
    items = table("a", "b", "x", "y", "z")
    state = state_with([("a", 1), ("b", 2)], items, capacity=2, pinned={"a": "seg"})
    state.main_memory = {"x", "y", "z"}
    events = retrieve(state, ["x", "y", "z"])
    assert logged(events) == [
        "Displace b",
        "Store b",
        "Displace a",
        "Store a",
        "Retrieve x",
        "Retrieve y",
        "Displace x",
        "Store x",
        "Retrieve z",
    ]
    assert tuple(state.by_recency) == ("y", "z")
    assert state.main_memory == {"a", "b", "x"}
    assert state.effort == 3
    check_cache_invariants(state)


def test_inserting_only_cached_items_displaces_nothing():
    items = table("a", "b")
    state = state_with([("a", 1), ("b", 2)], items, capacity=2, pinned={"a": "seg"})
    assert insert_items(state, ["b", "a", "b"]) == []
    assert tuple(state.by_recency) == ("b", "a")
    assert state.last_touch == {"b": 3, "a": 4}
    assert state.step == 4
    assert state.pinned == {"a": "seg"}
    assert state.main_memory == set() and state.discarded == set()


COST_TEXT = """DIALOGUE d
PUSH s
UTT u0 speaker=A
ITEM e0 kind=entity
ITEM e1 kind=entity
PUSH t
UTT u1 speaker=A
ITEM e2 kind=entity
ITEM e3 kind=entity
RETURN s
UTT u2 speaker=A
"""


def test_a_cache_charges_its_retrieval_cost_for_each_item_moved():
    transcript = parse(COST_TEXT)
    state = new_cache(transcript.item_table, capacity=3, retrieval_cost=3)
    for utt in transcript.utterances[:2]:
        cache_step(state, utt, transcript.events_at(utt.index), transcript)
    assert state.main_memory == {"e0"} and state.effort == 0
    # The return cue names e1, cached, and e0, moved in from main memory.
    events = apply_events(state, transcript.events_at(2), transcript)
    assert [f"{e.kind.value} {e.target}" for e in events] == [
        "Displace e2",
        "Store e2",
        "Retrieve e0",
    ]
    assert state.effort == 3
    # A resolution's retrieval, as the replay makes it: e3 is cached.
    events = retrieve(state, ["e2", "e3"])
    assert [f"{e.kind.value} {e.target}" for e in events] == [
        "Displace e1",
        "Store e1",
        "Retrieve e2",
    ]
    assert state.effort == 6


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


def _replay_events(text, capacity):
    """The store events of each utterance of a cache replay of ``text``."""

    transcript = parse(text)
    state = new_cache(transcript.item_table, capacity)
    logs = []
    for utt in transcript.utterances:
        events = cache_step(state, utt, transcript.events_at(utt.index), transcript)
        logs.append([f"{e.kind.value} {e.target}" for e in events])
    return logs, state


def test_a_return_releases_a_segment_pushed_before_the_same_utterance():
    # b opens inside a before u1, so the two pushes share a position. The
    # return to a closes b, so b's pin on e0 goes and u2 displaces e0.
    logs, state = _replay_events(
        """DIALOGUE d
UTT u0 speaker=A
ITEM e0 kind=entity
PUSH a
PUSH b expect-return
UTT u1 speaker=A
ITEM e1 kind=entity
RETURN a
UTT u2 speaker=A
ITEM e2 kind=entity
""",
        capacity=2,
    )
    assert logs[2] == ["Unpin e0", "Displace e0", "Store e0"]
    assert state.pinned == {}
    check_cache_invariants(state)


def test_a_return_keeps_the_pins_of_a_segment_pushed_before_the_resumed_one():
    # a opens before b, at the same position, so the return to b leaves
    # a open and a's pin on e0 in place.
    logs, state = _replay_events(
        """DIALOGUE d
UTT u0 speaker=A
ITEM e0 kind=entity
PUSH a expect-return
PUSH b
UTT u1 speaker=A
ITEM e1 kind=entity
PUSH c expect-return
UTT u2 speaker=A
ITEM e2 kind=entity
RETURN b
UTT u3 speaker=A
""",
        capacity=7,
    )
    assert logs[3] == ["Unpin e1"]
    assert state.pinned == {"e0": "a"}
    check_cache_invariants(state)


def test_infinite_capacity_never_displaces():
    items = table(*[f"x{i}" for i in range(15)])
    state = new_cache(items, capacity=None)
    for index, item_id in enumerate(sorted(items)):
        events = cache_step(state, utterance(item_id, index=index), (), EMPTY)
        assert all(e.kind is not StoreEventKind.DISPLACE for e in events)
    assert len(state.by_recency) == 15
    assert state.effort == 0


@pytest.mark.parametrize("fixture", sorted(path.name for path in FIXTURES.glob("*.dlg")))
def test_an_unbounded_cache_never_enters_evict(fixture, monkeypatch):
    """Nothing is displaced at capacity ``None``, so no admission asks
    ``evict`` for a cascade, not even an empty one."""

    def refuse(state, count):
        raise AssertionError(f"evict({count}) called on an unbounded cache")

    monkeypatch.setattr(cache_model, "evict", refuse)
    report = replay(load_fixture(fixture), ModelKind.CACHE, None)
    assert report.records


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
