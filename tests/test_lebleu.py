"""Fuzzy-match BLEU: identities, delta behavior, dominance over BLEU."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import lebleu_oracle
from orthosyl.errors import ParameterError
from orthosyl.metrics import bleu, lebleu, lebleu_report, word_similarity


def random_corpus(rng, n_sentences=6, max_len=10):
    vocab = ["ghara", "gharA", "samora", "cA", "ahe", "nako", "rAjU", "bAhera"]
    return [
        " ".join(rng.choices(vocab, k=rng.randint(1, max_len)))
        for _ in range(n_sentences)
    ]


def test_identical_corpora_score_100():
    # sentences at least max_n tokens long, so no 0/0 precision
    lines = ["ghara samora cA ahe nako", "rAjU nako bAhera ghara"]
    for delta in (0.2, 0.6, 1.0):
        assert lebleu(lines, list(lines), delta=delta) == pytest.approx(100.0)


def test_word_similarity():
    assert word_similarity("gharasamora", "gharasamor") == pytest.approx(10 / 11)
    assert word_similarity("abc", "abc") == 1.0
    assert word_similarity("a", "b") == 0.0


def test_fuzzy_unigram_precision():
    report = lebleu_report(["gharasamora"], ["gharasamor"], delta=0.6)
    assert report.precisions[0] == pytest.approx(10 / 11, abs=1e-9)


def test_threshold_blocks_weak_matches():
    # similarity 0.5 < delta 0.6: no credit
    report = lebleu_report(["ab"], ["ax"], delta=0.6)
    assert report.precisions[0] == 0.0
    # at delta 0.5 the same pair earns its similarity
    report = lebleu_report(["ab"], ["ax"], delta=0.5)
    assert report.precisions[0] == pytest.approx(0.5)


def test_delta_one_equals_bleu():
    rng = random.Random(11)
    for _ in range(100):
        hyps = random_corpus(rng)
        refs = random_corpus(rng)
        assert lebleu(hyps, refs, delta=1.0) == pytest.approx(
            bleu(hyps, refs).score, abs=1e-9
        )


def test_dominates_bleu():
    rng = random.Random(12)
    for _ in range(100):
        hyps = random_corpus(rng)
        refs = random_corpus(rng)
        for delta in (0.3, 0.6, 0.9):
            assert lebleu(hyps, refs, delta=delta) >= bleu(hyps, refs).score - 1e-9


def test_reference_credit_consumed_once():
    # two identical hypothesis words, one reference occurrence: only one
    # can collect the exact credit; the other must fuzzy-match nothing
    report = lebleu_report(["ghara ghara"], ["ghara"], delta=0.99, max_n=1)
    assert report.precisions[0] == pytest.approx(0.5)


def test_greedy_prefers_exact_match():
    # "abcd" matches ref "abcd" exactly even though "abcx" is also close
    report = lebleu_report(["abcd abcx"], ["abcd"], delta=0.6, max_n=1)
    # exact pair takes the only reference slot: mass 1.0 out of 2 unigrams
    assert report.precisions[0] == pytest.approx(0.5)


def test_delta_out_of_range():
    for delta in (0.0, -0.1, 1.5):
        with pytest.raises(ParameterError):
            lebleu(["a"], ["a"], delta=delta)


def test_brevity_penalty_matches_bleu():
    hyps = ["a b c"]
    refs = ["a b c d e f"]
    assert lebleu_report(hyps, refs).brevity_penalty == pytest.approx(
        bleu(hyps, refs).brevity_penalty
    )


# Property tests. Lines are drawn from a small random vocabulary over one
# alphabet, so that exact repeats, near misses and length-bound cases all
# occur. Deltas include every value 1 - d / L of the length bound
# 1 - |len w - len v| / max(len w, len v) for words of up to six code
# points, computed the same way, so that a pair can sit exactly on the
# bound; 2/3 and 1/3 as written differ from 1 - 1/3 and 1 - 2/3 in the
# last bit and are drawn too.

_ALPHABETS = ("ab", "abcde", "abcdefghijklmnopqrstuvwxyz", "कखगतनमरािीुेो्ं")
_BOUND_DELTAS = tuple(
    sorted({1.0 - d / n for n in range(1, 7) for d in range(n)} | {1 / 3, 2 / 3, 0.6})
)


@st.composite
def corpora(draw, min_lines=1):
    alphabet = draw(st.sampled_from(_ALPHABETS))
    words = st.text(alphabet, min_size=1, max_size=6)
    vocab = draw(st.lists(words, min_size=1, max_size=10))
    line = st.lists(st.sampled_from(vocab), max_size=10).map(" ".join)
    n_lines = draw(st.integers(min_lines, 4))
    hyps = draw(st.lists(line, min_size=n_lines, max_size=n_lines))
    refs = draw(st.lists(line, min_size=n_lines, max_size=n_lines))
    return hyps, refs


deltas = st.one_of(
    st.sampled_from(_BOUND_DELTAS),
    st.floats(0.0, 1.0, exclude_min=True),
)


@settings(max_examples=400, deadline=None)
@given(corpora(), deltas, st.integers(1, 6))
def test_report_equals_oracle(corpus, delta, max_n):
    hyps, refs = corpus
    assert lebleu_report(hyps, refs, delta, max_n) == lebleu_oracle.lebleu_report(
        hyps, refs, delta, max_n
    )


@settings(max_examples=200, deadline=None)
@given(corpora(), deltas, st.integers(1, 6))
def test_delta_one_is_bleu_and_lower_delta_dominates(corpus, delta, max_n):
    hyps, refs = corpus
    plain = bleu(hyps, refs, max_n)
    assert lebleu_report(hyps, refs, 1.0, max_n) == plain
    fuzzy = lebleu_report(hyps, refs, delta, max_n)
    assert fuzzy.score >= plain.score
    assert all(f >= p for f, p in zip(fuzzy.precisions, plain.precisions))


@settings(max_examples=200, deadline=None)
@given(corpora(min_lines=2), deltas, st.integers(1, 6), st.randoms(use_true_random=False))
def test_joint_line_permutation_keeps_report(corpus, delta, max_n, rnd):
    hyps, refs = corpus
    pairs = list(zip(hyps, refs))
    rnd.shuffle(pairs)
    base = lebleu_report(hyps, refs, delta, max_n)
    perm = lebleu_report([h for h, _ in pairs], [r for _, r in pairs], delta, max_n)
    # the per-order matched mass is a float sum over lines, so only its
    # rounding may depend on the line order
    assert (perm.hyp_length, perm.ref_length) == (base.hyp_length, base.ref_length)
    assert perm.brevity_penalty == base.brevity_penalty
    assert perm.precisions == pytest.approx(base.precisions, rel=1e-12, abs=0.0)
    assert perm.score == pytest.approx(base.score, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(corpora(), deltas, deltas, st.integers(1, 6))
def test_unigram_precision_never_rises_with_delta(corpus, d1, d2, max_n):
    hyps, refs = corpus
    low, high = sorted((d1, d2))
    assert (
        lebleu_report(hyps, refs, high, max_n).precisions[0]
        <= lebleu_report(hyps, refs, low, max_n).precisions[0]
    )


def test_higher_order_precision_can_rise_with_delta():
    # the greedy assignment is not monotone in delta beyond order 1: at
    # delta 0.4 a bigram pair drops out and a better set is taken instead
    hyps, refs = ["cab b ab b bcb"], ["abc ab a baca bb ac"]
    low = lebleu_report(hyps, refs, delta=0.3)
    high = lebleu_report(hyps, refs, delta=0.4)
    assert low.precisions[1] == pytest.approx(0.125)
    assert high.precisions[1] == pytest.approx(0.1458, abs=1e-4)
    assert high.precisions[1] > low.precisions[1]
    assert high.precisions[0] <= low.precisions[0]
