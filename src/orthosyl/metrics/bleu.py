"""Corpus-level BLEU with a single reference per hypothesis.

Modified n-gram precision with clipping, geometric mean over orders
1..max_n, and the exponential brevity penalty for hypotheses shorter than
their references. A smoothed sentence-level variant (add-one on the
precisions of orders >= 2) is provided for n-best rescoring, where the
unsmoothed score is almost always zero.

One counting path serves all three BLEU variants. `_ngrams` lists the
n-grams of every order 1..top of a line, order by order, as tuples that
`zip` builds; `_ngram_counts` counts that list into one Counter for a
reference. `_clipped_matches` walks the hypothesis list once without
counting it: each n-gram found in the reference counts uses up one of
them and adds 1 to the slot of its order, so per order the matches sum
to min(hypothesis count, reference count), the clipped count. `bleu` and
`sentence_bleu_smoothed` take their clipped counts from it; `bleu` and
Le-BLEU (`lebleu.lebleu_report`) pool per-line matches into a report
through `_corpus_report`. `sentence_bleu_smoothed` keeps the counts of
the last reference it saw (`_reference_counts`), so the consecutive
entries of an n-best list that share a sentence id count their reference
once; each entry uses up a plain dict copy, and the cached Counter is
only read.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from ..errors import EmptyInputError, ParameterError, check_aligned

DEFAULT_MAX_N = 4
# No line is that long in practice, and an order longer than every line has
# no n-grams, so its precision and the corpus score are 0 anyway.
MAX_N_CEILING = 1000


@dataclass(frozen=True)
class BleuReport:
    """Per-order modified precisions plus the composite score.

    `matched[n - 1]` and `total[n - 1]` are the corpus's pooled order-n
    matched count (fuzzy mass for Le-BLEU) and hypothesis n-gram count,
    the numerator and denominator of `precisions[n - 1]`.
    """

    precisions: tuple[float, ...]
    brevity_penalty: float
    score: float
    hyp_length: int
    ref_length: int
    matched: tuple[float, ...]
    total: tuple[int, ...]


def _ngrams(tokens: Sequence[str], top: int) -> list[tuple[str, ...]]:
    """The n-grams (as tuples) of orders 1..top, all of order 1 first."""
    grams = list(zip(tokens)) if top else []
    for n in range(2, top + 1):
        grams += zip(*[tokens[i:] for i in range(n)])
    return grams


def _ngram_counts(tokens: Sequence[str], top: int) -> Counter:
    """One Counter over the n-grams (as tuples) of every order 1..top."""
    return Counter(_ngrams(tokens, top))


def _tokenize(line: str) -> list[str]:
    return line.split()


def check_max_n(max_n: int) -> int:
    """Return the highest n-gram order if it is in 1..MAX_N_CEILING; else ParameterError."""
    if max_n < 1:
        raise ParameterError(f"max_n must be >= 1, got {max_n}")
    if max_n > MAX_N_CEILING:
        raise ParameterError(f"max_n must be <= {MAX_N_CEILING}, got {max_n}")
    return max_n


def _validate(hyps: Sequence[str], refs: Sequence[str], max_n: int) -> None:
    check_max_n(max_n)
    check_aligned(hyp=hyps, ref=refs)
    if not hyps:
        raise EmptyInputError("cannot score an empty corpus")


def brevity_penalty(hyp_length: int, ref_length: int) -> float:
    if hyp_length >= ref_length:
        return 1.0
    if hyp_length == 0:
        return 0.0
    return math.exp(1.0 - ref_length / hyp_length)


def combine_precisions(
    precisions: Sequence[float], bp: float
) -> float:
    """Geometric mean of the precisions times the brevity penalty, as a %."""
    if any(p <= 0.0 for p in precisions):
        return 0.0
    log_mean = sum(math.log(p) for p in precisions) / len(precisions)
    return bp * math.exp(log_mean) * 100.0


def _clipped_matches(
    hyp_grams: Iterable[tuple[str, ...]], ref_counts: dict, top: int
) -> list[int]:
    """Per order 1..top, hypothesis n-grams matched in the reference, each
    clipped to its reference count. A match uses up one count of
    `ref_counts`, which the caller hands over; no key is inserted."""
    matched = [0] * top
    ref_get = ref_counts.get
    for gram in hyp_grams:
        ref_count = ref_get(gram)
        if ref_count:
            ref_counts[gram] = ref_count - 1
            matched[len(gram) - 1] += 1
    return matched


def _corpus_report(
    hyps: Sequence[str],
    refs: Sequence[str],
    max_n: int,
    matched_per_order: Callable[[list[str], list[str], int], Iterable[float]],
) -> BleuReport:
    """Pool per-line n-gram matches over the corpus into a BLEU report.

    For each tokenized line pair, `matched_per_order(hyp, ref, top)` yields
    the matched count (or fuzzy mass) of orders 1..top, where
    top = min(max_n, len(hyp)); a line adds its len(hyp) - n + 1 n-grams to
    the total of each of those orders.
    """
    _validate(hyps, refs, max_n)
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp_line, ref_line in zip(hyps, refs):
        hyp = _tokenize(hyp_line)
        ref = _tokenize(ref_line)
        hyp_len += len(hyp)
        ref_len += len(ref)
        top = min(max_n, len(hyp))
        for n, m in enumerate(matched_per_order(hyp, ref, top), start=1):
            total[n - 1] += len(hyp) - n + 1
            matched[n - 1] += m
    precisions = tuple(
        (matched[i] / total[i]) if total[i] else 0.0 for i in range(max_n)
    )
    bp = brevity_penalty(hyp_len, ref_len)
    score = combine_precisions(precisions, bp)
    return BleuReport(precisions, bp, score, hyp_len, ref_len, tuple(matched), tuple(total))


def bleu(hyps: Sequence[str], refs: Sequence[str], max_n: int = DEFAULT_MAX_N) -> BleuReport:
    """Corpus BLEU of whitespace-tokenized hypothesis/reference lines."""
    return _corpus_report(hyps, refs, max_n, lambda hyp, ref, top: _clipped_matches(
        _ngrams(hyp, top), _ngram_counts(ref, top), top
    ))


@lru_cache(maxsize=1)
def _reference_counts(ref_tokens: tuple[str, ...], max_n: int) -> Counter:
    """`_ngram_counts` of the last reference scored; callers must not mutate it."""
    return _ngram_counts(ref_tokens, max_n)


def sentence_bleu_smoothed(
    hyp_tokens: Sequence[str], ref_tokens: Sequence[str], max_n: int = DEFAULT_MAX_N
) -> float:
    """Sentence-level BLEU with add-one smoothing on orders >= 2."""
    check_max_n(max_n)
    matches = _clipped_matches(
        _ngrams(hyp_tokens, max_n), dict(_reference_counts(tuple(ref_tokens), max_n)), max_n
    )
    precisions: list[float] = []
    for n, matched in enumerate(matches, start=1):
        total = max(len(hyp_tokens) - n + 1, 0)
        if n == 1:
            precisions.append(matched / total if total else 0.0)
        else:
            precisions.append((matched + 1) / (total + 1))
    bp = brevity_penalty(len(hyp_tokens), len(ref_tokens))
    return combine_precisions(precisions, bp)
