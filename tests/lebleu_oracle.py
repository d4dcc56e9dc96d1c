"""Reference Le-BLEU: the n-gram-pair scorer the package's table scorer must equal.

For every order it forms every hypothesis x reference n-gram pair of a
line, multiplies the pair's word similarities (0 as soon as one is below
delta), and assigns the pairs greedily in (-contribution, hyp index, ref
index) order. Word similarities are cached across the whole corpus. Slow,
and kept only so that tests can compare `lebleu_report` with it.
"""

from __future__ import annotations

from typing import Sequence

from orthosyl.errors import ParameterError
from orthosyl.metrics.bleu import (
    BleuReport,
    _tokenize,
    _validate,
    brevity_penalty,
    combine_precisions,
)
from orthosyl.metrics.lebleu import word_similarity


def _ngram_list(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _fuzzy_matched_mass(
    hyp_grams: list[tuple[str, ...]],
    ref_grams: list[tuple[str, ...]],
    delta: float,
    sim_cache: dict[tuple[str, str], float],
) -> float:
    """Total contribution of a greedy best-first one-to-one assignment."""

    def sim(w: str, v: str) -> float:
        key = (w, v)
        cached = sim_cache.get(key)
        if cached is None:
            cached = word_similarity(w, v)
            sim_cache[key] = cached
        return cached

    candidates: list[tuple[float, int, int]] = []
    for hi, hgram in enumerate(hyp_grams):
        for ri, rgram in enumerate(ref_grams):
            contribution = 1.0
            for w, v in zip(hgram, rgram):
                s = sim(w, v)
                if s < delta:
                    contribution = 0.0
                    break
                contribution *= s
            if contribution > 0.0:
                candidates.append((contribution, hi, ri))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    hyp_used = [False] * len(hyp_grams)
    ref_used = [False] * len(ref_grams)
    mass = 0.0
    for contribution, hi, ri in candidates:
        if hyp_used[hi] or ref_used[ri]:
            continue
        hyp_used[hi] = True
        ref_used[ri] = True
        mass += contribution
    return mass


def lebleu_report(
    hyps: Sequence[str],
    refs: Sequence[str],
    delta: float = 0.6,
    max_n: int = 4,
) -> BleuReport:
    """Fuzzy-match BLEU report; `lebleu` returns just its score."""
    if not (0.0 < delta <= 1.0):
        raise ParameterError(f"delta must be in (0, 1], got {delta}")
    _validate(hyps, refs, max_n)
    matched = [0.0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    sim_cache: dict[tuple[str, str], float] = {}
    for hyp_line, ref_line in zip(hyps, refs):
        hyp = _tokenize(hyp_line)
        ref = _tokenize(ref_line)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_grams = _ngram_list(hyp, n)
            if not hyp_grams:
                continue
            total[n - 1] += len(hyp_grams)
            matched[n - 1] += _fuzzy_matched_mass(
                hyp_grams, _ngram_list(ref, n), delta, sim_cache
            )
    precisions = tuple(
        (matched[i] / total[i]) if total[i] else 0.0 for i in range(max_n)
    )
    bp = brevity_penalty(hyp_len, ref_len)
    score = combine_precisions(precisions, bp)
    return BleuReport(precisions, bp, score, hyp_len, ref_len, tuple(matched), tuple(total))
