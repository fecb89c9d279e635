"""Randomized property suites over generated traces (seed recorded)."""

from __future__ import annotations

import random

import propsuite
from attnsim import stack_model
from attnsim.core import EventKind, Gender, ItemKind, Number
from attnsim.transcript_io import parse

COVERAGE_TRIALS = 200


def test_cache_invariants_hold_on_random_traces():
    assert propsuite.run_invariant_suite() == propsuite.INVARIANT_TRIALS


def test_displacement_matches_brute_force_lru_oracle():
    assert propsuite.run_lru_oracle_suite() == propsuite.ORACLE_TRIALS


def test_eviction_cascades_never_displace_unpinned_after_pinned():
    assert propsuite.run_pin_cascade_suite() == propsuite.PIN_CASCADE_TRIALS


def test_infinite_capacity_dominates_stack_views():
    assert propsuite.run_infinite_capacity_suite() == propsuite.INFINITE_TRIALS


def test_unbounded_cache_replays_as_an_oversized_one_without_pins():
    assert (
        propsuite.run_unbounded_equivalence_suite()
        == propsuite.UNBOUNDED_EQUIVALENCE_TRIALS
    )


def test_push_pop_restores_spaces():
    assert propsuite.run_stack_restore_suite() == propsuite.STACK_RESTORE_TRIALS


def test_stack_views_invariant_under_popped_interruptions():
    assert (
        propsuite.run_interruption_invariance_suite()
        == propsuite.INVARIANCE_PAIR_TRIALS
    )


def test_longer_interruptions_never_help_the_cache():
    assert (
        propsuite.run_interruption_contrast_suite()
        == propsuite.CONTRAST_PAIR_TRIALS
    )


def test_round_trips_and_determinism():
    assert propsuite.run_roundtrip_suite() == propsuite.ROUNDTRIP_TRIALS


def test_view_reuse_matches_fresh_views():
    assert propsuite.run_fresh_view_suite() == propsuite.FRESH_VIEW_TRIALS


def test_stack_matches_value_based_reference():
    assert propsuite.run_stack_reference_suite() == propsuite.STACK_REFERENCE_TRIALS


def test_referent_index_matches_per_store_filtering():
    assert propsuite.run_referent_index_suite() == propsuite.REFERENT_INDEX_TRIALS


def test_renaming_ids_changes_no_report_or_trace():
    assert propsuite.run_renaming_suite() == propsuite.RENAMING_TRIALS


def test_trace_lists_hold_only_item_ids():
    assert propsuite.run_trace_id_suite() == propsuite.TRACE_ID_TRIALS


def test_generated_texts_cover_every_format_feature_but_case():
    """Counted from the raw lines and the parsed transcripts of the seeded
    trials, not from the generator's own bookkeeping."""

    counts = dict.fromkeys(
        [
            "comment line",
            "blank line",
            "entity without gender=",
            "entity without num=",
            "proposition whose gender is not n",
            "surface form realizing an entity",
            "pronoun with sel=pred:",
            "pronoun whose gold is declared later",
            "several segment events before one utterance",
            "RETURN closing two or more segments",
            "repeated RETURN to one segment",
            "re-mention of an item stacked below the top space",
            "re-mention of a popped item",
        ],
        0,
    )
    rng = random.Random(propsuite.SEED)
    for _ in range(COVERAGE_TRIALS):
        text = propsuite.random_transcript_text(rng)
        lines = text.splitlines()
        counts["comment line"] += sum(line.lstrip().startswith("#") for line in lines)
        counts["blank line"] += sum(not line.strip() for line in lines)
        transcript = parse(text)
        table = transcript.item_table
        stack = stack_model.new_stack()
        returned_to: set[str] = set()
        for item in table.values():
            if item.kind is ItemKind.ENTITY:
                counts["entity without gender="] += item.gender is Gender.UNSPECIFIED
                counts["entity without num="] += item.number is Number.UNSPECIFIED
            elif item.kind is ItemKind.PROPOSITION:
                counts["proposition whose gender is not n"] += item.gender is not Gender.NEUT
            else:
                realized = table[item.realizes]
                counts["surface form realizing an entity"] += realized.kind is ItemKind.ENTITY
        for utt in transcript.utterances:
            for mention in utt.mentions:
                counts["pronoun with sel=pred:"] += any(
                    tag.startswith("pred:") for tag in mention.required_sel_classes
                )
                gold = table[mention.gold_antecedent]
                counts["pronoun whose gold is declared later"] += gold.introduced_at > utt.index
            counts["several segment events before one utterance"] += (
                len(transcript.events_at(utt.index)) > 1
            )
            for event in transcript.events_at(utt.index):
                closed = stack_model.apply_event(stack, event)
                if event.kind is EventKind.RETURN:
                    counts["RETURN closing two or more segments"] += len(closed) >= 2
                    counts["repeated RETURN to one segment"] += event.segment_id in returned_to
                    returned_to.add(event.segment_id)
            said = set(utt.items)
            below_top = [item for _, items in propsuite.stack_spaces(stack)[:-1] for item in items]
            counts["re-mention of an item stacked below the top space"] += len(
                said.intersection(below_top)
            )
            counts["re-mention of a popped item"] += len(said & stack.popped)
            stack_model.apply_utterance(stack, utt)
    assert all(counts.values()), counts
