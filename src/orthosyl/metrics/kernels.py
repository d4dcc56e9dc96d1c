"""String kernels: LCS length and Levenshtein distance.

These two measures dominate corpus-scale metric runs (LCSR over every
sentence pair, edit distance over every candidate word pair inside the
fuzzy-match scorer). Both are bit-parallel: Python ints serve as unbounded
bit vectors over the longer string, one bit per code point, so each code
point of the shorter string costs a handful of big-int operations instead
of a row of DP cells.

The plain O(m*n) table fills over code-point arrays (`encode`,
`_lcs_len_py`, `_edit_distance_py`) are the reference the tests compare
the bit-parallel kernels against.
"""

from __future__ import annotations

import numpy as np


def _match_masks(s: str) -> dict[str, int]:
    """Map each code point of s to the bit mask of its positions in s."""
    peq: dict[str, int] = {}
    bit = 1
    for ch in s:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    return peq


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence of two strings.

    Hyyrö (2004), "Bit-parallel LCS-length computation revisited": bit i of
    v is cleared once position i of the longer string is matched, and the
    LCS length is the number of cleared bits.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    get = _match_masks(a).get
    mask = (1 << len(a)) - 1
    v = mask
    for ch in b:
        u = v & get(ch, 0)
        v = ((v + u) | (v - u)) & mask
    return len(a) - v.bit_count()


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance between two strings.

    Myers (1999), "A fast bit-vector algorithm for approximate string
    matching based on dynamic programming" (JACM 46(3)): pv/mv hold the
    +1/-1 vertical deltas of the current DP column over the longer string.
    Shifting a 1 into ph each step sets the top row to D[0][j] = j, which
    makes the distance global rather than a substring search.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    get = _match_masks(a).get
    m = len(a)
    mask = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for ch in b:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & mask
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


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
