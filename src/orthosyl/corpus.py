"""Corpus reading, writing, splitting and unit-vocabulary statistics.

All corpus files are UTF-8, one sentence per line, LF-terminated. Lines are
NFC-normalized at ingestion: Indic matras and nukta have composed and
decomposed variants that would otherwise break code-point classification.
"""

from __future__ import annotations

import random
import unicodedata
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .errors import (
    CorpusDecodeError,
    DegenerateCorpusError,
    OrthosylError,
    SplitSizeError,
    raise_at_line,
    source_prefix,
)
from .scripts import ScriptId
from .segment import MorphLexicon, UnitScheme, check_unit_options, segment_word

_BOM = "﻿"


def load_corpus(source: str | Path | IO) -> list[str]:
    """Read sentences from a path or text/binary stream.

    Lines end at LF only: other code points that str.splitlines() treats
    as breaks (CR alone, VT, FF, U+001C-U+001E, U+0085, U+2028, U+2029)
    stay inside the line, so parallel files keep their alignment. Strips a
    leading byte-order mark and one trailing CR from each line (CRLF), and
    NFC-normalizes every line. Invalid UTF-8 raises CorpusDecodeError
    naming the byte offset, and the path when one was given.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        raw = source.read()
        # surrogatepass: a lone surrogate (a surrogateescape stream's
        # invalid byte) reaches the decode below, which names its offset
        data = raw.encode("utf-8", "surrogatepass") if isinstance(raw, str) else raw
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusDecodeError(
            f"{source_prefix(source)}invalid UTF-8 at byte offset {exc.start}: {exc.reason}",
            exc.start,
        ) from None
    if text.startswith(_BOM):
        text = text[len(_BOM):]
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return [unicodedata.normalize("NFC", line.removesuffix("\r")) for line in lines]


def write_corpus(lines: Iterable[str], destination: str | Path | IO) -> None:
    """Write sentences one per line, LF-terminated."""
    payload = "".join(f"{line}\n" for line in lines)
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(payload, encoding="utf-8", newline="\n")
    else:
        destination.write(payload)


def check_split_sizes(sizes: tuple[int, int, int]) -> tuple[int, int, int]:
    """Return the sizes if they are three nonnegative integers; else SplitSizeError."""
    if len(sizes) != 3 or min(sizes) < 0:
        raise SplitSizeError(f"split sizes must be three nonnegative integers, got {sizes}")
    return sizes


def split_corpus(
    lines: Sequence[str],
    sizes: tuple[int, int, int],
    seed: int | None = None,
) -> tuple[list[str], list[str], list[str]]:
    """Split a corpus into train/tune/test pieces.

    The default split is the contiguous prefix in train/tune/test order;
    passing a seed shuffles reproducibly before splitting.
    """
    train_n, tune_n, test_n = check_split_sizes(sizes)
    total = train_n + tune_n + test_n
    if total > len(lines):
        raise SplitSizeError(f"requested {total} lines from a corpus of {len(lines)}")
    pool = list(lines)
    if seed is not None:
        random.Random(seed).shuffle(pool)
    return pool[:train_n], pool[train_n:train_n + tune_n], pool[train_n + tune_n:total]


@dataclass(frozen=True)
class VocabStats:
    """Unit-vocabulary statistics of a corpus under one scheme.

    mean_unit_length is the mean code-point length over the distinct units
    (the inventory), not over unit occurrences: frequent units are mostly
    short, so an occurrence-weighted mean says little about the vocabulary.
    """

    scheme: UnitScheme
    type_count: int
    token_count: int
    mean_unit_length: float

    def format_line(self) -> str:
        return (
            f"{self.scheme}\t{self.type_count}\t{self.token_count}"
            f"\t{self.mean_unit_length:.4f}"
        )


def vocab_stats(
    lines: Iterable[str],
    scheme: UnitScheme,
    morphs: MorphLexicon | None = None,
    script: ScriptId | None = None,
) -> VocabStats:
    """Segment every word of the corpus and count the resulting units.

    The parameters are checked before the first line is read: a forced
    script with no table, or a morph scheme without a lexicon, raises
    without a line number (`check_unit_options`). Then `lines` is read
    once, counting words, and each distinct word is segmented once (one
    segment_word call per distinct word, not per token) and its count is
    added to each of its units. The state held is the word counts plus
    one int per line. Boundary markers are never counted (segment_word
    emits none). A word that cannot be segmented raises its OrthosylError
    with the 1-based number of the first line it occurs on, as in
    segment_corpus.
    """
    check_unit_options(scheme, morphs, script)
    words: Counter[str] = Counter()
    seen: list[int] = []  # distinct words seen up to and including each line
    for line in lines:
        words.update(line.split())
        seen.append(len(words))
    counts: dict[str, int] = {}
    for k, (word, n) in enumerate(words.items()):  # first-occurrence order
        try:
            units = segment_word(word, scheme, morphs, script)
        except OrthosylError as exc:
            raise_at_line(exc, bisect_right(seen, k) + 1)
        for unit in units:
            counts[unit] = counts.get(unit, 0) + n
    mean_len = sum(map(len, counts)) / len(counts) if counts else 0.0
    return VocabStats(scheme, type_count=len(counts), token_count=sum(counts.values()),
                      mean_unit_length=mean_len)


def unit_ratio(
    lines: Sequence[str],
    scheme_a: UnitScheme,
    scheme_b: UnitScheme,
    morphs: MorphLexicon | None = None,
    script: ScriptId | None = None,
) -> float:
    """Ratio of distinct-unit counts between two schemes on one corpus."""
    denom = vocab_stats(lines, scheme_b, morphs, script).type_count
    if denom == 0:
        raise DegenerateCorpusError(
            f"corpus yields no units under scheme {scheme_b}"
        )
    numer = vocab_stats(lines, scheme_a, morphs, script).type_count
    return numer / denom
