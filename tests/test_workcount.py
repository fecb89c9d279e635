"""A replay's work per utterance holds as the dialogue grows.

Tier-1 holds no timing test; it counts instead (``tests/workcount.py``).
The old-survivor and growing-resumed-segment shapes still read more per
utterance the longer they run (ROADMAP item 14), so only deep nesting is
held here.
"""

from __future__ import annotations

import pytest

from attnsim import cache_model, stack_model
from attnsim.driver import ModelKind, replay
from attnsim.transcript_io import parse

from propsuite import counting_work, deep_nesting_text
from workcount import COUNTERS, MODELS, work_per_utterance

GROWTH = 1.5  # the most a count per utterance may grow from 500 to 2,000


@pytest.mark.parametrize(("label", "model", "capacity"), MODELS, ids=[m[0] for m in MODELS])
def test_deep_nesting_work_per_utterance_is_flat(label, model, capacity):
    short = work_per_utterance(deep_nesting_text(500), model, capacity)
    long = work_per_utterance(deep_nesting_text(2000), model, capacity)
    assert short["total"] > 0
    for name in (*COUNTERS, "total"):
        assert long[name] <= GROWTH * short[name], (name, short, long)


def _wrapped() -> tuple:
    """What ``counting_work`` wraps, as the models define it."""

    return (
        cache_model.CacheState.immediate,
        stack_model.FocusStack.immediate,
        cache_model.segment_items,
        stack_model.apply_event,
    )


def test_counting_work_counts_each_read_and_puts_the_models_back():
    text = (
        "DIALOGUE t\nPUSH s0 expect-return\nUTT u0 speaker=A\nITEM a kind=entity\n"
        "PUSH g\nUTT u1 speaker=B\nITEM b kind=entity\nRETURN s0\nUTT u2 speaker=A\n"
        "PRON p gender=m num=sg gold=a\n"
    )
    originals = _wrapped()
    transcript = parse(text)
    with counting_work() as stack_counts:
        replay(transcript, ModelKind.STACK, candidates=False)
    # The pronoun draws a, the one stacked item; the return pops b.
    assert stack_counts == {"immediate": 1, "popped": 1}
    with counting_work() as cache_counts:
        replay(transcript, ModelKind.CACHE, None, candidates=False)
    # The cue reads s0's one item, a; the pronoun draws a from the front.
    assert cache_counts == {"immediate": 1, "segment_items": 1}
    assert _wrapped() == originals
