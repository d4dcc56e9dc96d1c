"""Reference LCS length and edit distance, straight from their definitions.

`brute_force_lcs` enumerates the subsequences of the shorter string, longest
first; `brute_force_edit` is the recursive Levenshtein definition with
memoization. Exponential and slow, and kept only so that tests can compare
`lcs_length` and `edit_distance` with them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def brute_force_lcs(a: str, b: str) -> int:
    if len(a) > len(b):
        a, b = b, a
    for length in range(len(a), 0, -1):
        for combo in itertools.combinations(a, length):
            it = iter(b)
            if all(ch in it for ch in combo):
                return length
    return 0


def brute_force_edit(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
            dist(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return dist(len(a), len(b))
