"""Reference BLEU: the corpus and sentence scorers the package's must equal.

Each order counts and clips its own n-grams and the corpus loop is written
out in full, as before the package's scorers shared one counting path.
Kept only so that tests can compare `bleu` and `sentence_bleu_smoothed`
with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from orthosyl.errors import ParameterError
from orthosyl.metrics.bleu import (
    BleuReport,
    _tokenize,
    _validate,
    brevity_penalty,
    combine_precisions,
)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hyps: Sequence[str], refs: Sequence[str], max_n: int = 4) -> BleuReport:
    """Corpus BLEU of whitespace-tokenized hypothesis/reference lines."""
    _validate(hyps, refs, max_n)
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp_line, ref_line in zip(hyps, refs):
        hyp = _tokenize(hyp_line)
        ref = _tokenize(ref_line)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            total[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
    precisions = tuple(
        (matched[i] / total[i]) if total[i] else 0.0 for i in range(max_n)
    )
    bp = brevity_penalty(hyp_len, ref_len)
    score = combine_precisions(precisions, bp)
    return BleuReport(precisions, bp, score, hyp_len, ref_len, tuple(matched), tuple(total))


def sentence_bleu_smoothed(
    hyp_tokens: Sequence[str], ref_tokens: Sequence[str], max_n: int = 4
) -> float:
    """Sentence-level BLEU with add-one smoothing on orders >= 2."""
    if max_n < 1:
        raise ParameterError(f"max_n must be >= 1, got {max_n}")
    precisions: list[float] = []
    for n in range(1, max_n + 1):
        hyp_counts = _ngrams(hyp_tokens, n)
        ref_counts = _ngrams(ref_tokens, n)
        total = sum(hyp_counts.values())
        matched = sum(
            min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
        )
        if n == 1:
            precisions.append(matched / total if total else 0.0)
        else:
            precisions.append((matched + 1) / (total + 1))
    bp = brevity_penalty(len(hyp_tokens), len(ref_tokens))
    return combine_precisions(precisions, bp)
