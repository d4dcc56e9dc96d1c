"""Corpus-level BLEU with a single reference per hypothesis.

Modified n-gram precision with clipping, geometric mean over orders
1..max_n, and the exponential brevity penalty for hypotheses shorter than
their references. A smoothed sentence-level variant (add-one on the
precisions of orders >= 2) is provided for n-best rescoring, where the
unsmoothed score is almost always zero.

One counting path serves all three BLEU variants: `bleu` and
`sentence_bleu_smoothed` take clipped counts from `_clipped_matches`, and
`bleu` and Le-BLEU (`lebleu.lebleu_report`) pool per-line matches into a
report through `_corpus_report`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..errors import EmptyInputError, ParameterError, check_aligned


@dataclass(frozen=True)
class BleuReport:
    """Per-order modified precisions plus the composite score."""

    precisions: tuple[float, ...]
    brevity_penalty: float
    score: float
    hyp_length: int
    ref_length: int


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _tokenize(line: str) -> list[str]:
    return line.split()


def check_max_n(max_n: int) -> int:
    """Return the highest n-gram order if it is at least 1; else ParameterError."""
    if max_n < 1:
        raise ParameterError(f"max_n must be >= 1, got {max_n}")
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


def _clipped_matches(hyp: Sequence[str], ref: Sequence[str], n: int) -> int:
    """Hypothesis n-grams matched in the reference, each clipped to its ref count."""
    ref_counts = _ngrams(ref, n)
    return sum(min(count, ref_counts[gram]) for gram, count in _ngrams(hyp, n).items())


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
    return BleuReport(precisions, bp, score, hyp_len, ref_len)


def bleu(hyps: Sequence[str], refs: Sequence[str], max_n: int = 4) -> BleuReport:
    """Corpus BLEU of whitespace-tokenized hypothesis/reference lines."""
    return _corpus_report(hyps, refs, max_n, lambda hyp, ref, top: (
        _clipped_matches(hyp, ref, n) for n in range(1, top + 1)
    ))


def sentence_bleu_smoothed(
    hyp_tokens: Sequence[str], ref_tokens: Sequence[str], max_n: int = 4
) -> float:
    """Sentence-level BLEU with add-one smoothing on orders >= 2."""
    check_max_n(max_n)
    precisions: list[float] = []
    for n in range(1, max_n + 1):
        total = max(len(hyp_tokens) - n + 1, 0)
        matched = _clipped_matches(hyp_tokens, ref_tokens, n)
        if n == 1:
            precisions.append(matched / total if total else 0.0)
        else:
            precisions.append((matched + 1) / (total + 1))
    bp = brevity_penalty(len(hyp_tokens), len(ref_tokens))
    return combine_precisions(precisions, bp)
