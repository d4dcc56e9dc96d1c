"""Longest-common-subsequence measures of lexical similarity."""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import AlignmentError, EmptyInputError
from .kernels import edit_distance, lcs_length


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
    if len(a_lines) != len(b_lines):
        raise AlignmentError(
            f"corpora are not aligned: {len(a_lines)} lines vs {len(b_lines)} lines"
        )
    return list(zip(a_lines, b_lines))
