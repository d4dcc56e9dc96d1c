"""String kernels and the longest-common-subsequence measures built on them.

The kernels, LCS length and Levenshtein distance, dominate corpus-scale
metric runs (LCSR over every sentence pair, edit distance over every
candidate word pair inside the fuzzy-match scorer). Both are bit-parallel:
Python ints serve as unbounded bit vectors over the longer string, one bit
per code point, so each code point of the shorter string costs a handful of
big-int operations instead of a row of DP cells. The plain O(m*n) table
fills over code-point arrays (`encode`, `_lcs_len_py`, `_edit_distance_py`)
are the reference the tests compare the kernels against.

`lcs_length` first strips the longest common prefix and suffix, whose
code points all belong to the LCS: LCSR compares lines that are mostly
alike, so the bit loop often runs over a short middle, or not at all.
`edit_distance` could strip them too (the same identity holds for
Levenshtein distance), but it serves Le-BLEU's word pairs, which are a
few code points long and seldom share a first or last code point, so
the extra comparisons cost more than they save there.

Le-BLEU scores each word of a sentence against many others, and a
corpus repeats its words, so `edit_distance` takes the longer string's
match masks from `_word_masks`, a bounded least-recently-used cache of
`_match_masks` shared by the whole process; the masks are only read,
so a result never depends on whether they were cached. Nor does it
keep a running score: the distance is read off the last column, as the
top row's D[0][n] = n plus the count of that column's +1 steps (pv)
minus its -1 steps (mv). `lcs_length` builds its masks afresh: LCSR
pairs are whole lines that seldom repeat, and a shared cache made lcsr
7-10% slower.

`lcsr` and `corpus_lcsr` measure lexical similarity by LCS length.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from ..errors import EmptyInputError, check_aligned


def _match_masks(s: str) -> dict[str, int]:
    """Map each code point of s to the bit mask of its positions in s."""
    peq: dict[str, int] = {}
    bit = 1
    for ch in s:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    return peq


# Match masks of the longer strings that edit_distance has seen, least
# recently used evicted first. An entry for a string of L code points, k of
# them distinct, is a dict of k ints of L bits: about 1 KB for a
# 10-code-point word (tracemalloc, CPython 3.11). Only strings of up to
# _CACHED_LENGTH code points are kept, so an entry stays under about 4.5 KB
# and the full cache under about 9 MB.
_CACHED_LENGTH = 32
_word_masks = functools.lru_cache(maxsize=2048)(_match_masks)


def _common_affixes(a: str, b: str) -> tuple[int, int]:
    """Lengths of the longest common prefix of a and b, and of the longest
    common suffix of what follows it; b must be the shorter string.

    Each length is found by halving: one slice comparison, which runs in C,
    tells whether the run reaches the middle of the range still open.
    """
    m, n = len(a), len(b)
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    prefix = lo
    lo, hi = 0, n - prefix
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a[m - mid:] == b[n - mid:]:
            lo = mid
        else:
            hi = mid - 1
    return prefix, lo


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence of two strings.

    A common prefix and then a common suffix are stripped first, since
    LCS(xa, xb) = 1 + LCS(a, b) and likewise at the end; that costs one
    comparison when the first and last code points both differ. The middle
    parts go through Hyyrö (2004), "Bit-parallel LCS-length computation
    revisited": bit i of v is cleared once position i of the longer string
    is matched, and the LCS length is the number of cleared bits.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    same = 0
    if a[0] == b[0] or a[-1] == b[-1]:
        prefix, suffix = _common_affixes(a, b)
        same = prefix + suffix
        b = b[prefix:len(b) - suffix]
        if not b:
            return same
        a = a[prefix:len(a) - suffix]
    get = _match_masks(a).get
    mask = (1 << len(a)) - 1
    v = mask
    for ch in b:
        u = v & get(ch, 0)
        v = ((v + u) | (v - u)) & mask
    return same + len(a) - v.bit_count()


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance between two strings.

    Myers (1999), "A fast bit-vector algorithm for approximate string
    matching based on dynamic programming" (JACM 46(3)): pv/mv hold the
    +1/-1 vertical deltas of the current DP column over the longer string.
    Shifting a 1 into ph each step sets the top row to D[0][j] = j, which
    makes the distance global rather than a substring search. The
    distance is D[0][n] = n plus the last column's deltas.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    m = len(a)
    get = (_word_masks(a) if m <= _CACHED_LENGTH else _match_masks(a)).get
    mask = (1 << m) - 1
    pv, mv = mask, 0
    for ch in b:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & mask
        mh = pv & xh
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


def encode(s: str) -> np.ndarray:
    """Code-point array for a string (int32, one element per code point)."""
    if not s:
        return np.empty(0, dtype=np.int32)
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.int32)


def _lcs_len_py(a: np.ndarray, b: np.ndarray) -> int:
    m, n = a.shape[0], b.shape[0]
    prev = np.zeros(n + 1, dtype=np.int32)
    cur = np.zeros(n + 1, dtype=np.int32)
    for i in range(m):
        ai = a[i]
        for j in range(n):
            if ai == b[j]:
                cur[j + 1] = prev[j] + 1
            else:
                up = prev[j + 1]
                left = cur[j]
                cur[j + 1] = up if up >= left else left
        prev, cur = cur, prev
    return int(prev[n])


def _edit_distance_py(a: np.ndarray, b: np.ndarray) -> int:
    m, n = a.shape[0], b.shape[0]
    prev = np.arange(n + 1, dtype=np.int32)
    cur = np.zeros(n + 1, dtype=np.int32)
    for i in range(m):
        ai = a[i]
        cur[0] = i + 1
        for j in range(n):
            cost = 0 if ai == b[j] else 1
            best = prev[j] + cost
            if prev[j + 1] + 1 < best:
                best = prev[j + 1] + 1
            if cur[j] + 1 < best:
                best = cur[j] + 1
            cur[j + 1] = best
        prev, cur = cur, prev
    return int(prev[n])



def lcsr(a: str, b: str) -> float:
    """LCS length divided by the longer string's length.

    1.0 when both strings are empty, 0.0 when exactly one is.
    """
    if not a and not b:
        return 1.0
    longer = max(len(a), len(b))
    return lcs_length(a, b) / longer


def corpus_lcsr(pairs: Iterable[tuple[str, str]]) -> float:
    """Mean character-level lcsr over aligned sentence pairs.

    Whitespace counts as ordinary characters. The iterable must be nonempty.
    """
    total = 0.0
    count = 0
    for a, b in pairs:
        total += lcsr(a, b)
        count += 1
    if count == 0:
        raise EmptyInputError("corpus_lcsr needs at least one sentence pair")
    return total / count


def aligned_pairs(a_lines: Sequence[str], b_lines: Sequence[str]) -> list[tuple[str, str]]:
    """Zip two corpora, failing loudly on mismatched line counts."""
    check_aligned(a=a_lines, b=b_lines)
    return list(zip(a_lines, b_lines))
