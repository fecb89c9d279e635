"""Regression inputs for return-pop cases whose gold antecedent lies
outside the resumed segment.

A case's window opens at the earlier of the resumed segment's push and
its gold antecedent's introduction, so a gold said before the push is
among the candidates. A gold that is not an entity said before the
case's RETURN can be resumed by no pronoun at the return: ``parse``
rejects the CASE line. Before either rule, both texts below made
``pops`` exit 1.
"""

from __future__ import annotations

from attnsim.cli import main
from attnsim.driver import classify_corpus
from attnsim.resolution import PopClassification
from attnsim.transcript_io import parse

# The gold, e0, is said before g0 is pushed.
GOLD_BEFORE_PUSH = """DIALOGUE d
UTT u0 speaker=A
ITEM e0 kind=entity gender=m num=sg
PRON m0 gender=m num=sg gold=e0
PUSH g0
RETURN g0
CASE c0 mention=m0
"""

# The gold, e0, is said only after the RETURN that c0 annotates.
GOLD_AFTER_RETURN = """DIALOGUE d
UTT u0 speaker=A
PUSH g0
RETURN g0
CASE c0 mention=m0
UTT u1 speaker=A
ITEM e0 kind=entity gender=m num=sg
PRON m0 gender=m num=sg gold=e0
"""


def test_gold_said_before_the_push_classifies(tmp_path, capsys):
    (result,) = classify_corpus(parse(GOLD_BEFORE_PUSH)).results
    assert [item.id for item in result.case.candidates_at_return] == ["e0"]
    assert result.classification is PopClassification.PRONOUN_SUFFICIENT
    path = tmp_path / "before.dlg"
    path.write_text(GOLD_BEFORE_PUSH, encoding="utf-8")
    assert main(["pops", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_gold_said_after_the_return_is_a_parse_error_on_the_case_line(tmp_path, capsys):
    path = tmp_path / "after.dlg"
    path.write_text(GOLD_AFTER_RETURN, encoding="utf-8")
    for command in ("pops", "compare"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: line 5: gold antecedent 'e0' is not an entity introduced"
            " before the RETURN\n"
        )
