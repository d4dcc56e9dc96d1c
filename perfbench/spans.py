"""Spans around the program's public functions, recorded from outside it.

`patch` replaces a public function in every ``orthosyl`` module namespace
that holds it (the defining module and every module that imported it by
name), so calls made inside the package go through the replacement. The
benchmark uses it two ways: `Recorder.wrap` times each call, and the
self-test substitutes a deliberately wrong kernel.

A span is ``[name, start, end, parent, value]``: ``parent`` indexes the
enclosing span of the same process (-1 for the root), and ``value`` is a
per-call measure where one is defined (DP cells for the kernels, the
returned similarity for ``word_similarity``, code points read for
``load_corpus``). Spans stay in memory and are written as JSON, together
with the command that produced them, when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from time import perf_counter

# (module, public function) pairs that bound a layer. The span name is the
# module path below the package plus the function name.
TARGETS = (
    ("orthosyl.cli", "build_parser"),
    ("orthosyl.corpus", "load_corpus"),
    ("orthosyl.corpus", "vocab_stats"),
    ("orthosyl.scripts", "detect_script"),
    ("orthosyl.scripts", "get_table"),
    ("orthosyl.syllabify", "syllabify"),
    ("orthosyl.syllabify", "syllabify_indic"),
    ("orthosyl.syllabify", "syllabify_alpha"),
    ("orthosyl.segment", "tokenize_sentence"),
    ("orthosyl.segment", "segment_word"),
    ("orthosyl.segment", "detokenize"),
    ("orthosyl.metrics.lcs", "lcs_length"),
    ("orthosyl.metrics.lcs", "edit_distance"),
    ("orthosyl.metrics.lebleu", "lebleu_report"),
    ("orthosyl.metrics.lebleu", "word_similarity"),
    ("orthosyl.metrics.bleu", "bleu"),
    ("orthosyl.metrics.bleu", "sentence_bleu_smoothed"),
    ("orthosyl.metrics.correlation", "similarity_correlation"),
    ("orthosyl.metrics.nbest", "parse_nbest"),
    ("orthosyl.metrics.nbest", "rescore_nbest"),
)


def _cells(args, result):
    return len(args[0]) * len(args[1])


MEASURES = {
    "metrics.lcs.lcs_length": _cells,
    "metrics.lcs.edit_distance": _cells,
    "metrics.lebleu.word_similarity": lambda args, result: result,
    "corpus.load_corpus": lambda args, result: sum(map(len, result)) + len(result),
}


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('orthosyl.')}.{attr}"


def patch(module: str, attr: str, make) -> None:
    """Replace module.attr by make(span name, original) wherever it is bound."""
    original = getattr(importlib.import_module(module), attr)
    replacement = make(span_name(module, attr), original)
    for name, mod in list(sys.modules.items()):
        if name != "orthosyl" and not name.startswith("orthosyl."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


class Recorder:
    """Collects the spans of one process."""

    def __init__(self):
        self.spans: list = []
        self._current = -1

    def wrap(self, name: str, fn):
        spans = self.spans
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            idx = len(spans)
            spans.append(None)
            self._current = idx
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._current = parent
                spans[idx] = [name, start, end, parent, None]
            if measure is not None:
                spans[idx][4] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr in TARGETS:
            patch(module, attr, self.wrap)


class LayerStats:
    """Per-name totals over the spans of one or more processes."""

    def __init__(self):
        self.durations: list[float] = []
        self.self_s = 0.0
        self.values: list = []

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return math.fsum(self.durations)


def aggregate(runs) -> dict[tuple[str, str | None], LayerStats]:
    """Stats per (span name, command) and per (span name, None) over all commands.

    `runs` yields (command, spans) pairs. Self time is a span's duration
    minus the time its child spans cover.
    """
    stats: dict[tuple[str, str | None], LayerStats] = {}
    for command, spans in runs:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, value) in enumerate(spans):
            for key in ((name, command), (name, None)):
                entry = stats.setdefault(key, LayerStats())
                entry.durations.append(end - start)
                entry.self_s += end - start - child_time[idx]
                if value is not None:
                    entry.values.append(value)
    return stats


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9 / p99 / p95 / p90 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None
