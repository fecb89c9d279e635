"""Randomized property suites over generated traces (seed recorded)."""

from __future__ import annotations

import propsuite


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
