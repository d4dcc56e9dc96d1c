"""N-best list parsing, formatting and word-level rescoring."""

import pytest
from hypothesis import given, settings, strategies as st

import bleu_oracle
from orthosyl.errors import AlignmentError, MalformedStreamError, ParameterError
from orthosyl.metrics import parse_nbest, rescore_nbest
from orthosyl.metrics.nbest import NBestEntry, NBestList

NBEST_LINES = [
    "0 ||| रा जू _ न को ||| lm=-3.2 tm=-1.1 ||| -4.3",
    "0 ||| रा जा _ न को ||| lm=-3.5 tm=-1.9 ||| -5.4",
    "1 ||| घ रा ||| lm=-1.0 ||| -1.0",
]
REFS = ["राजू नको", "घर"]


def test_parse_round_trip():
    nbest = parse_nbest(NBEST_LINES)
    assert len(nbest.entries) == 3
    assert nbest.entries[0].sentence_id == 0
    assert nbest.entries[0].tokens[0] == "रा"
    assert nbest.entries[0].features == "lm=-3.2 tm=-1.1"
    assert nbest.entries[0].model_score == pytest.approx(-4.3)
    assert nbest.format_lines() == NBEST_LINES


def test_parse_rejects_short_lines():
    with pytest.raises(MalformedStreamError, match="line 1"):
        parse_nbest(["0 ||| tokens only"])


def test_parse_rejects_bad_numbers():
    with pytest.raises(MalformedStreamError):
        parse_nbest(["x ||| a ||| f ||| 1.0"])
    with pytest.raises(MalformedStreamError):
        parse_nbest(["0 ||| a ||| f ||| notanumber"])
    # the sentence id is ASCII decimal digits, not whatever int() reads
    for sentence_id in ("1_0", "+3", "-1", "\u0663", ""):
        with pytest.raises(MalformedStreamError, match="line 1: sentence id"):
            parse_nbest([f"{sentence_id} ||| a ||| f ||| 1.0"])
    # and the model score is an ASCII number, not whatever float() reads
    for score in ("1_0", "\u0661\u0662", "\u0660.\u0666"):
        with pytest.raises(MalformedStreamError, match="line 1: could not convert"):
            parse_nbest([f"0 ||| a ||| f ||| {score}"])


def test_parse_rejects_decreasing_ids():
    with pytest.raises(MalformedStreamError, match="nondecreasing"):
        parse_nbest([
            "1 ||| a ||| f ||| 1.0",
            "0 ||| b ||| f ||| 1.0",
        ])


def test_parse_error_carries_its_line_number():
    with pytest.raises(MalformedStreamError) as info:
        parse_nbest(["0 ||| a ||| f ||| 1", "0 ||| a ||| f"])
    assert info.value.lineno == 2
    assert str(info.value) == "line 2: expected 4 ' ||| '-separated fields, got 3"
    # a fifth field (an alignment, or an earlier word_bleu) would be lost
    with pytest.raises(MalformedStreamError) as info:
        parse_nbest(["0 ||| a ||| f ||| 1", "", "0 ||| a ||| f ||| 1 ||| extra"])
    assert info.value.lineno == 3
    assert str(info.value) == "line 3: expected 4 ' ||| '-separated fields, got 5"


def test_rescore_appends_word_bleu():
    nbest = parse_nbest(NBEST_LINES)
    rescored = rescore_nbest(nbest, REFS)
    lines = rescored.format_lines()
    assert len(lines) == 3
    for original, line in zip(NBEST_LINES, lines):
        assert line.startswith(original)
        assert line.count(" ||| ") == 4


def test_exact_candidate_scores_100():
    nbest = parse_nbest(["0 ||| रा जू _ न को ||| f ||| -1.0"])
    rescored = rescore_nbest(nbest, REFS)
    assert rescored.entries[0].word_bleu == pytest.approx(100.0)


def test_matching_candidate_outranks_mismatch():
    nbest = parse_nbest(NBEST_LINES[:2])
    rescored = rescore_nbest(nbest, REFS)
    exact, near = rescored.entries
    assert exact.word_bleu > near.word_bleu


def test_order_preserved():
    nbest = parse_nbest(NBEST_LINES)
    rescored = rescore_nbest(nbest, REFS)
    assert [e.model_score for e in rescored.entries] == [
        e.model_score for e in nbest.entries
    ]


def test_missing_reference_is_alignment_error():
    nbest = parse_nbest(["7 ||| a b ||| f ||| 0.0"])
    with pytest.raises(AlignmentError, match="sentence id 7"):
        rescore_nbest(nbest, REFS)


def test_malformed_marker_stream_propagates():
    nbest = parse_nbest(["0 ||| रा _ _ को ||| f ||| 0.0"])
    with pytest.raises(MalformedStreamError):
        rescore_nbest(nbest, REFS)


def test_missing_reference_names_its_nbest_line():
    # the blank line is skipped, so the entry's index is not its line
    nbest = parse_nbest(["0 ||| a ||| f ||| 1", "", "3 ||| b ||| f ||| 1"])
    with pytest.raises(AlignmentError) as info:
        rescore_nbest(nbest, ["a"])
    assert info.value.lineno == 3
    assert str(info.value) == "line 3: sentence id 3 has no reference (got 1 reference lines)"
    # an entry a library caller built has no line to name: the error is unchanged
    built = NBestList((NBestEntry(3, ("b",), "f", 1.0),))
    with pytest.raises(AlignmentError) as info:
        rescore_nbest(built, ["a"])
    assert not hasattr(info.value, "lineno")
    assert str(info.value) == "sentence id 3 has no reference (got 1 reference lines)"


def test_malformed_marker_stream_names_its_nbest_line():
    nbest = parse_nbest(["", "0 ||| a _ _ b ||| f ||| 1"])
    with pytest.raises(MalformedStreamError) as info:
        rescore_nbest(nbest, ["a b"])
    assert info.value.lineno == 2
    assert str(info.value) == "line 2: two consecutive boundary markers"


@pytest.mark.parametrize("params", [{"marker": ""}, {"marker": "__"}, {"marker": " "},
                                    {"max_n": 0}])
def test_parameters_are_checked_before_the_first_entry(params):
    # an empty list raises as a list with entries does, and with no line number
    for lines, refs in (([], []), (["0 ||| a _ b ||| f ||| 1"], ["ab"])):
        with pytest.raises(ParameterError) as info:
            rescore_nbest(parse_nbest(lines), refs, **params)
        assert not hasattr(info.value, "lineno")


words = st.lists(st.sampled_from(["a", "b", "ab"]), max_size=12)


@st.composite
def nbest_with_refs(draw):
    """Entries in nondecreasing id order that repeat and skip ids, against
    references drawn from at most two texts, so ids share a reference text.
    Each entry's tokens are its hypothesis words joined by markers."""
    texts = draw(st.lists(words.map(" ".join), min_size=1, max_size=2))
    refs = draw(st.lists(st.sampled_from(texts), min_size=1, max_size=5))
    ids = sorted(draw(st.lists(st.integers(0, len(refs) - 1), max_size=15)))
    hyps = [draw(words) for _ in ids]
    entries = tuple(
        NBestEntry(sentence_id=i, tokens=tuple(" _ ".join(hyp).split()),
                   features="f", model_score=0.0)
        for i, hyp in zip(ids, hyps)
    )
    return NBestList(entries), refs, hyps


@settings(max_examples=300, deadline=None)
@given(nbest_with_refs(), st.integers(1, 6))
def test_rescore_equals_per_entry_oracle(case, max_n):
    nbest, refs, hyps = case
    got = [e.word_bleu for e in rescore_nbest(nbest, refs, max_n=max_n).entries]
    want = [
        bleu_oracle.sentence_bleu_smoothed(hyp, refs[e.sentence_id].split(), max_n)
        for e, hyp in zip(nbest.entries, hyps)
    ]
    assert got == want
