"""Reference Pearson correlation, straight from its definition.

Two passes: the means first, then the centered products, each sum taken
exactly with math.fsum. Kept only so that tests can compare `pearson` with
it.
"""

from __future__ import annotations

import math


def pearson_oracle(xs, ys):
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)
