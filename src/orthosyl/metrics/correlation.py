"""Pearson correlation and the similarity-vs-accuracy analysis."""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import AlignmentError, ParameterError, UndefinedCorrelationError
from .lcs import lcsr


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation coefficient of two equal-length sequences."""
    if len(xs) != len(ys):
        raise ParameterError(
            f"sequences differ in length: {len(xs)} vs {len(ys)}"
        )
    n = len(xs)
    if n < 2:
        raise ParameterError("correlation needs at least two observations")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxy = sxx = syy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        sxy += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError(
            "correlation is undefined for a constant sequence"
        )
    return sxy / math.sqrt(sxx * syy)


def similarity_correlation(
    src_lines: Sequence[str],
    tgt_lines: Sequence[str],
    hyp_lines: Sequence[str],
    ref_lines: Sequence[str],
) -> float:
    """Correlation between source-target similarity and translation match.

    Per sentence index i, the x value is lcsr(src_i, tgt_i) and the y value
    is lcsr(hyp_i, ref_i), both at character level; the result is the
    Pearson correlation over all indices.
    """
    lengths = {
        "src": len(src_lines),
        "tgt": len(tgt_lines),
        "hyp": len(hyp_lines),
        "ref": len(ref_lines),
    }
    if len(set(lengths.values())) != 1:
        detail = ", ".join(f"{k}: {v} lines" for k, v in lengths.items())
        raise AlignmentError(f"the four files are not aligned ({detail})")
    xs = [lcsr(s, t) for s, t in zip(src_lines, tgt_lines)]
    ys = [lcsr(h, r) for h, r in zip(hyp_lines, ref_lines)]
    return pearson(xs, ys)
