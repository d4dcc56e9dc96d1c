"""BLEU: identities, the clipped-precision case, brevity penalty."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import bleu_oracle
from orthosyl.errors import AlignmentError, EmptyInputError, OrthosylError, ParameterError
from orthosyl.metrics import bleu, sentence_bleu_smoothed
from orthosyl.metrics.bleu import _clipped_matches, _ngram_counts, _ngrams, _reference_counts


def test_identical_corpora_score_100():
    lines = ["the cat sat on the mat", "a stitch in time saves nine"]
    report = bleu(lines, list(lines))
    assert report.score == pytest.approx(100.0)
    assert all(p == 1.0 for p in report.precisions)
    assert report.brevity_penalty == 1.0


def test_clipped_unigram_precision():
    report = bleu(["the the the the the the the"], ["the cat is on the mat"])
    assert report.precisions[0] == pytest.approx(2 / 7, abs=1e-9)


def test_brevity_penalty_formula():
    # all n-grams match but the hypothesis is half the reference length
    hyp = ["a b c d e"]
    ref = ["a b c d e f g h i j"]
    report = bleu(hyp, ref)
    assert report.hyp_length == 5 and report.ref_length == 10
    assert report.brevity_penalty == pytest.approx(math.exp(1 - 10 / 5))


def test_no_penalty_when_longer():
    report = bleu(["a b c d e f"], ["a b c d"])
    assert report.brevity_penalty == 1.0


def test_zero_when_any_precision_zero():
    # no 2-gram in common
    report = bleu(["a b"], ["a c"])
    assert report.precisions[1] == 0.0
    assert report.score == 0.0


def test_score_formula():
    hyps = ["the cat sat on the mat here now"]
    refs = ["the cat sat on a mat here today"]
    report = bleu(hyps, refs)
    want = report.brevity_penalty * math.exp(
        sum(math.log(p) for p in report.precisions) / 4
    ) * 100.0
    assert report.score == pytest.approx(want)


def test_corpus_level_pooling():
    # precisions pool counts over the corpus, not average per sentence
    hyps = ["a b", "c d e f"]
    refs = ["a b", "c d x y"]
    report = bleu(hyps, refs, max_n=1)
    assert report.precisions[0] == pytest.approx((2 + 2) / (2 + 4))


def test_max_n_parameter():
    with pytest.raises(ParameterError):
        bleu(["a"], ["a"], max_n=0)
    with pytest.raises(ParameterError, match="<= 1000"):
        bleu(["a"], ["a"], max_n=10**14)


def test_alignment_error():
    with pytest.raises(AlignmentError):
        bleu(["a", "b"], ["a"])


def test_empty_corpus():
    with pytest.raises(EmptyInputError):
        bleu([], [])


def test_score_bounds_random():
    rng = random.Random(5)
    vocab = "ab cd ef gh ij kl".split()
    for _ in range(50):
        hyps = [" ".join(rng.choices(vocab, k=rng.randint(1, 12))) for _ in range(4)]
        refs = [" ".join(rng.choices(vocab, k=rng.randint(1, 12))) for _ in range(4)]
        assert 0.0 <= bleu(hyps, refs).score <= 100.0


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from("ab cd ef gh ij".split()), min_size=4, max_size=12),
    st.randoms(use_true_random=False),
)
def test_permutation_never_raises_higher_order_precision(tokens, rnd):
    ref = " ".join(tokens)
    shuffled = list(tokens)
    rnd.shuffle(shuffled)
    base = bleu([ref], [ref])
    perm = bleu([" ".join(shuffled)], [ref])
    for n in range(1, 4):
        assert perm.precisions[n] <= base.precisions[n] + 1e-12


def outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except OrthosylError as exc:
        return type(exc), str(exc)


# short lines over four tokens, and long ones over two, where n-grams of
# orders 3-6 repeat and clipping above 1 happens
tokens = (st.lists(st.sampled_from(["a", "b", "c", "ab"]), max_size=8)
          | st.lists(st.sampled_from(["a", "b"]), max_size=40))


@st.composite
def corpora(draw):
    """Line pairs of 0-40 tokens; one draw in three drops or adds a reference."""
    pairs = draw(st.lists(st.tuples(tokens, tokens), max_size=5))
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    skew = draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    if skew < 0:
        refs = refs[:-1]
    elif skew > 0:
        refs.append(" ".join(draw(tokens)))
    return hyps, refs


@settings(max_examples=400, deadline=None)
@given(corpora(), st.integers(0, 6))
def test_report_equals_oracle(corpus, max_n):
    hyps, refs = corpus
    assert outcome(bleu, hyps, refs, max_n) == outcome(bleu_oracle.bleu, hyps, refs, max_n)


@settings(max_examples=400, deadline=None)
@given(tokens, tokens, st.integers(0, 6))
def test_sentence_bleu_equals_oracle(hyp, ref, max_n):
    assert outcome(sentence_bleu_smoothed, hyp, ref, max_n) == outcome(
        bleu_oracle.sentence_bleu_smoothed, hyp, ref, max_n
    )


def order_ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


@st.composite
def token_pair(draw):
    """Hypothesis and reference over one 2-4 symbol alphabet, so n-grams repeat."""
    alphabet = "abcd"[:draw(st.integers(2, 4))]
    line = st.lists(st.sampled_from(alphabet), max_size=12)
    return draw(line), draw(line)


@settings(max_examples=400, deadline=None)
@given(token_pair(), st.integers(1, 6))
def test_clipped_matches_equal_counter_intersection(pair, top):
    # clipping by definition: per order, the size of the multiset intersection
    hyp, ref = pair
    want = [sum((Counter(order_ngrams(hyp, n)) & Counter(order_ngrams(ref, n))).values())
            for n in range(1, top + 1)]
    assert _clipped_matches(_ngrams(hyp, top), _ngram_counts(ref, top), top) == want


def test_cached_reference_counts_are_not_mutated():
    # every entry uses up a copy of the cached reference counts; scoring many
    # hypotheses with n-grams the reference lacks, and with more repeats of
    # the ones it has, against the same (cached) reference must leave the
    # cache equal to a fresh count and the first score unchanged
    ref = "a b a b c a".split()
    rng = random.Random(3)
    hyps = ["a b a x".split()] + [
        rng.choices("a b c x y".split(), k=rng.randint(0, 14)) for _ in range(49)
    ]
    first = sentence_bleu_smoothed(hyps[0], ref)
    for hyp in hyps:
        assert sentence_bleu_smoothed(hyp, ref) == bleu_oracle.sentence_bleu_smoothed(hyp, ref)
    assert sentence_bleu_smoothed(hyps[0], ref) == first
    assert dict(_reference_counts(tuple(ref), 4)) == dict(_ngram_counts(ref, 4))


class TestSentenceSmoothed:
    def test_exact_match_scores_100(self):
        tokens = "the cat sat on the mat".split()
        assert sentence_bleu_smoothed(tokens, list(tokens)) == pytest.approx(100.0)

    def test_near_miss_is_nonzero(self):
        hyp = "the cat sat on a mat".split()
        ref = "the cat sat on the mat".split()
        score = sentence_bleu_smoothed(hyp, ref)
        assert 0.0 < score < 100.0

    def test_orders_candidates(self):
        ref = "the cat sat".split()
        worse = sentence_bleu_smoothed("the dog ran".split(), ref)
        better = sentence_bleu_smoothed("the cat ran".split(), ref)
        assert better > worse

    def test_empty_hypothesis_scores_zero(self):
        assert sentence_bleu_smoothed([], "a b".split()) == 0.0
