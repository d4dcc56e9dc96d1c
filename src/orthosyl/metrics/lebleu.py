"""BLEU with fuzzy word matches, for systems that translate sub-word units.

Matching rule. Two words w, v have similarity 1 - edit_distance(w, v) /
max(len w, len v), and 1.0 when equal. A hypothesis n-gram and a reference
n-gram of the same sentence pair are compared word by word, position k
against position k: the pair's contribution is the left-to-right product
of its n word similarities, provided every one of them is >= delta, and
the pair earns nothing otherwise. Per order n and per sentence pair, the
candidate pairs are sorted by (-contribution, hyp index, ref index) and
taken greedily, each hypothesis and each reference n-gram at most once;
the contributions taken are the sentence's matched mass for order n.
Precisions, brevity penalty and score then follow corpus BLEU, pooled by
the same loop (`bleu._corpus_report`), with fractional matched mass in
place of clipped counts. An exact match is the best contribution a pair
can have, so the score is never below BLEU for delta <= 1, and at
delta = 1 only exact matches count and it equals BLEU.

Computation. Each sentence pair gets one table of the word positions
(i, j) whose similarity is >= delta; each distinct word pair is scored
once per sentence. Only edit_distance's match masks of a word are shared
across sentences (`metrics.lcs`), and no result depends on them. As
edit_distance >= |len w - len v|, a pair with
1 - |len w - len v| / max(len w, len v) < delta cannot reach delta and is
not scored. The order-n contribution at (i, j) is the order-(n-1) one
times the table entry at (i + n - 1, j + n - 1), so each order extends the
previous one along diagonals of the table.

Monotonicity. At order 1 the pairs that a higher delta removes are the
last in greedy order, so precision_1 never rises with delta. Higher orders
can rise: a removed pair need not be among the last, and without it the
greedy assignment may take a better set. For hyp `cab b ab b bcb` and ref
`abc ab a baca bb ac`, precision_2 is 0.125 at delta = 0.3 and 0.1458 at
delta = 0.4.

Relation to LeBLEU. This is a LeBLEU-style metric, not LeBLEU as published
(Virpioja & Grönroos 2015, WMT15 metrics task), and its scores are not
comparable with published LeBLEU figures. LeBLEU scores an n-gram pair by
the letter edit distance between the two n-grams taken as whole strings,
so one badly matched word can be outweighed by the others; here every
word must reach delta on its own and the word similarities multiply.
LeBLEU's threshold bounds the relative edit distance (pairs further apart
than it get nothing), whereas delta here bounds the similarity from
below. The published scorer's search for an n-gram assignment is not
reproduced: here it is the exact greedy order above, over all n-gram
pairs of one sentence pair and only between n-grams of the same order.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ParameterError
from .bleu import DEFAULT_MAX_N, BleuReport, _corpus_report
from .lcs import edit_distance

DEFAULT_DELTA = 0.6


def word_similarity(w: str, v: str) -> float:
    """1 - edit_distance/max_length; 1.0 for two empty words."""
    if w == v:
        return 1.0
    longest = max(len(w), len(v))
    return 1.0 - edit_distance(w, v) / longest


def _positions(tokens: Sequence[str]) -> dict[str, list[int]]:
    at: dict[str, list[int]] = {}
    for i, token in enumerate(tokens):
        at.setdefault(token, []).append(i)
    return at


def _similar_pairs(
    hyp: Sequence[str], ref: Sequence[str], delta: float
) -> dict[tuple[int, int], float]:
    """{(i, j): similarity} for the word positions whose similarity is >= delta."""
    table: dict[tuple[int, int], float] = {}
    ref_at = [(v, len(v), v_at) for v, v_at in _positions(ref).items()]
    for w, w_at in _positions(hyp).items():
        lw = len(w)
        for v, lv, v_at in ref_at:
            if w != v and 1.0 - abs(lw - lv) / (lw if lw > lv else lv) < delta:
                continue
            s = word_similarity(w, v)
            if s >= delta:
                for i in w_at:
                    for j in v_at:
                        table[i, j] = s
    return table


def _greedy_mass(contributions: dict[tuple[int, int], float]) -> float:
    """Total contribution of the greedy best-first one-to-one assignment."""
    hyp_used: set[int] = set()
    ref_used: set[int] = set()
    mass = 0.0
    for (i, j), c in sorted(contributions.items(), key=lambda kv: (-kv[1], kv[0])):
        if i not in hyp_used and j not in ref_used:
            hyp_used.add(i)
            ref_used.add(j)
            mass += c
    return mass


def check_delta(delta: float) -> float:
    """Return the word-match threshold if it lies in (0, 1]; else ParameterError."""
    if not (0.0 < delta <= 1.0):  # also rejects nan
        raise ParameterError(f"delta must be in (0, 1], got {delta}")
    return delta


def lebleu_report(
    hyps: Sequence[str],
    refs: Sequence[str],
    delta: float = DEFAULT_DELTA,
    max_n: int = DEFAULT_MAX_N,
) -> BleuReport:
    """Fuzzy-match BLEU report; `lebleu` returns just its score."""
    check_delta(delta)

    def matched_per_order(hyp, ref, top):
        sim = level = _similar_pairs(hyp, ref, delta)
        for n in range(1, top + 1):
            if n > 1:
                level = {
                    (i, j): c * s
                    for (i, j), c in level.items()
                    if (s := sim.get((i + n - 1, j + n - 1))) is not None
                }
            yield _greedy_mass(level)

    return _corpus_report(hyps, refs, max_n, matched_per_order)


def lebleu(
    hyps: Sequence[str],
    refs: Sequence[str],
    delta: float = DEFAULT_DELTA,
    max_n: int = DEFAULT_MAX_N,
) -> float:
    """Fuzzy-match BLEU score as a percentage."""
    return lebleu_report(hyps, refs, delta=delta, max_n=max_n).score
