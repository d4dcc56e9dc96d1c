"""Unit representations of sentences with invertible boundary markers.

A sentence is a whitespace-separated word sequence. Each word is segmented
under one of five unit schemes (word, morph, character unigram, character
n-gram, orthographic syllable). For sub-word schemes a boundary-marker token
is placed between the unit groups of consecutive words so the sentence can
be reconstructed exactly by concatenating units between markers.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import (
    LexiconFormatError,
    MalformedStreamError,
    MarkerCollisionError,
    OrthosylError,
    ParameterError,
    attach_line,
    raise_at_line,
)
from .scripts import ScriptId, get_table
from .syllabify import syllabify

DEFAULT_MARKER = "_"

# Substitute written in place of an in-word marker character when the
# caller opts into replacement instead of an error.
MARKER_SUBSTITUTE = "▁"

_WORD = "word"
_MORPH = "morph"
_CHAR = "char"
_CHAR_NGRAM = "char-ngram"
_OS = "os"


@dataclass(frozen=True)
class UnitScheme:
    """One of the five unit representations; char n-grams carry their n."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind not in (_WORD, _MORPH, _CHAR, _CHAR_NGRAM, _OS):
            raise ParameterError(f"unknown unit scheme: {self.kind!r}")
        if self.kind == _CHAR_NGRAM:
            if self.n is None or self.n < 2:
                raise ParameterError("char n-gram scheme requires n >= 2")
        elif self.n is not None:
            raise ParameterError(f"scheme {self.kind!r} takes no n parameter")

    @classmethod
    def word(cls) -> "UnitScheme":
        return cls(_WORD)

    @classmethod
    def morph(cls) -> "UnitScheme":
        return cls(_MORPH)

    @classmethod
    def char_unigram(cls) -> "UnitScheme":
        return cls(_CHAR)

    @classmethod
    def char_ngram(cls, n: int) -> "UnitScheme":
        return cls(_CHAR_NGRAM, n)

    @classmethod
    def ortho_syllable(cls) -> "UnitScheme":
        return cls(_OS)

    @classmethod
    def parse(cls, text: str) -> "UnitScheme":
        """Parse a CLI-style scheme name: word|morph|char|char-ngram=N|os."""
        text = text.strip().lower()
        if text.startswith(_CHAR_NGRAM):
            _, sep, num = text.partition("=")
            if not sep or not num.isdecimal():
                raise ParameterError(f"expected char-ngram=N, got {text!r}")
            return cls.char_ngram(int(num))
        return cls(text)

    @property
    def is_subword(self) -> bool:
        return self.kind != _WORD

    def __str__(self) -> str:
        return f"{_CHAR_NGRAM}={self.n}" if self.kind == _CHAR_NGRAM else self.kind


class MorphLexicon:
    """Word -> ordered morph segments, loaded from external segmenter output.

    File format: one entry per line, "word TAB segment1 SPACE segment2 ...".
    The segments of every entry must concatenate back to the word.
    """

    def __init__(self, entries: dict[str, list[str]] | None = None):
        self._entries: dict[str, tuple[str, ...]] = {}
        for word, segs in (entries or {}).items():
            self.add(word, segs)

    def add(self, word: str, segments: Sequence[str]) -> None:
        segments = tuple(segments)
        if "".join(segments) != word:
            raise LexiconFormatError(
                f"segments {list(segments)!r} do not concatenate to {word!r}"
            )
        self._entries[word] = segments

    def get(self, word: str) -> tuple[str, ...] | None:
        return self._entries.get(word)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    @classmethod
    def load(cls, path: str) -> "MorphLexicon":
        """Read a lexicon file the way load_corpus reads a corpus.

        Lines end at LF only, one trailing CR is stripped, every line is
        NFC-normalized, and invalid UTF-8 raises CorpusDecodeError naming
        the byte offset. Empty lines are skipped. A malformed entry raises
        LexiconFormatError naming the path and the line.
        """
        from .corpus import load_corpus  # corpus imports this module

        lexicon = cls()
        for lineno, line in enumerate(load_corpus(path), start=1):
            if not line:
                continue
            word, sep, rest = line.partition("\t")
            try:
                if not sep:
                    raise LexiconFormatError(f"expected 'word TAB segments', got {line!r}")
                lexicon.add(word, rest.split())
            except LexiconFormatError as exc:
                raise_at_line(exc, lineno, path)
        return lexicon


@dataclass(frozen=True)
class TokenizedSentence:
    """Unit stream for one sentence, invertible back to the sentence."""

    tokens: tuple[str, ...]
    marker: str
    scheme: UnitScheme

    def __str__(self) -> str:
        return " ".join(self.tokens)


def _check_lexicon(kind: str, morphs: MorphLexicon | None) -> None:
    if kind == _MORPH and morphs is None:
        raise ParameterError("morph scheme requires a morph lexicon")


def check_unit_options(
    scheme: UnitScheme, morphs: MorphLexicon | None = None, script: ScriptId | None = None
) -> None:
    """Raise if `scheme` cannot segment with these options: a forced script
    with no table (UnsupportedScriptError) or a morph scheme without a
    lexicon (ParameterError). Corpus-level callers run it before line 1."""
    if script is not None:
        get_table(script)
    _check_lexicon(scheme.kind, morphs)


def segment_word(
    word: str,
    scheme: UnitScheme,
    morphs: MorphLexicon | None = None,
    script: ScriptId | None = None,
) -> list[str]:
    """Split one word into units; concatenating them restores the word, or
    for OS units its NFC form (a composition-excluded letter such as U+0958
    comes back decomposed).

    OS units are cached per (word, script) for up to 65,536 words, so a
    repeated word is syllabified once; each call returns a fresh list.
    """
    kind = scheme.kind
    if kind == _OS:
        return list(_os_units(word, script))
    if kind == _WORD:
        return [word]
    if kind == _MORPH:
        _check_lexicon(kind, morphs)
        entry = morphs.get(word)
        return list(entry) if entry is not None else [word]
    if kind == _CHAR:
        return list(word)
    n = scheme.n  # the char n-gram scheme
    return [word[i:i + n] for i in range(0, len(word), n)]


@lru_cache(maxsize=65536)
def _os_units(word: str, script: ScriptId | None) -> tuple[str, ...]:
    return tuple([unit.text for unit in syllabify(word, script)])


def check_marker(marker: str, on_marker_collision: str = "error") -> str:
    """Return the marker if it survives str.split() and NFC and the collision
    mode is 'error' or 'replace'; else ParameterError."""
    if len(marker) != 1 or marker.isspace() or not unicodedata.is_normalized("NFC", marker):
        raise ParameterError(f"marker must be one non-whitespace NFC code point, got {marker!r}")
    if on_marker_collision == "replace" and marker == MARKER_SUBSTITUTE:
        raise ParameterError(f"marker {marker!r} is the in-word substitute under 'replace'")
    if on_marker_collision not in ("error", "replace"):
        raise ParameterError(
            f"on_marker_collision must be 'error' or 'replace', got {on_marker_collision!r}"
        )
    return marker


def tokenize_sentence(
    sentence: str,
    scheme: UnitScheme,
    marker: str = DEFAULT_MARKER,
    morphs: MorphLexicon | None = None,
    script: ScriptId | None = None,
    on_marker_collision: str = "error",
) -> TokenizedSentence:
    """Segment every word of a sentence, inserting boundary markers.

    For sub-word schemes a marker token separates the unit groups of
    consecutive words; the word scheme emits the words unchanged. Words
    containing the marker character raise MarkerCollisionError unless
    `on_marker_collision="replace"`, which silently substitutes the
    in-word occurrences with MARKER_SUBSTITUTE.
    """
    check_marker(marker, on_marker_collision)
    words = sentence.split()
    # the marker is one non-whitespace code point, so it is in the sentence
    # exactly when it is in one of its words
    if marker in sentence:
        if on_marker_collision == "error":
            word = next(word for word in words if marker in word)
            raise MarkerCollisionError(
                f"word {word!r} contains the boundary marker {marker!r}"
            )
        words = [word.replace(marker, MARKER_SUBSTITUTE) for word in words]

    if not scheme.is_subword:
        return TokenizedSentence(tuple(words), marker, scheme)

    tokens: list[str] = []
    for idx, word in enumerate(words):
        if idx:
            tokens.append(marker)
        tokens.extend(segment_word(word, scheme, morphs, script))
    return TokenizedSentence(tuple(tokens), marker, scheme)


def detokenize(
    tokens: TokenizedSentence | Sequence[str],
    marker: str = DEFAULT_MARKER,
) -> str:
    """Invert tokenization: concatenate units between markers into words.

    Accepts either a TokenizedSentence (exact inverse for every scheme,
    including the marker-free word scheme) or a raw token sequence, which is
    interpreted with sub-word semantics: units between consecutive marker
    tokens form one word and markers become single spaces.
    """
    if isinstance(tokens, TokenizedSentence):
        if not tokens.scheme.is_subword:
            return " ".join(tokens.tokens)
        return _concat_groups(tokens.tokens, tokens.marker)
    return _concat_groups(tuple(tokens), marker)


def _concat_groups(tokens: tuple[str, ...], marker: str) -> str:
    if not tokens:
        return ""
    if tokens[0] == marker or tokens[-1] == marker:
        raise MalformedStreamError("leading or trailing boundary marker")
    words: list[str] = []
    group: list[str] = []
    for tok in tokens:
        if tok == marker:
            if not group:
                raise MalformedStreamError("two consecutive boundary markers")
            words.append("".join(group))
            group = []
        else:
            group.append(tok)
    words.append("".join(group))
    return " ".join(words)


def segment_corpus(
    lines: Iterable[str],
    scheme: UnitScheme,
    marker: str = DEFAULT_MARKER,
    morphs: MorphLexicon | None = None,
    script: ScriptId | None = None,
    on_marker_collision: str = "error",
    skip_errors: bool = False,
    error_sink: TextIO | None = None,
) -> Iterator[str]:
    """Tokenize a corpus line by line, preserving line count and order.

    The parameters are checked before the first line is read; a bad one
    raises without a line number, whatever `skip_errors` says. Per-line
    errors (OrthosylError) are reported with their 1-based line number; the
    run fails on the first error unless `skip_errors` is set, in which case
    the offending line is passed through unchanged and the diagnostic goes
    to `error_sink`. Any other exception is a programming error and
    propagates unchanged, whatever `skip_errors` says.
    """
    check_marker(marker, on_marker_collision)
    check_unit_options(scheme, morphs, script)
    for lineno, line in enumerate(lines, start=1):
        try:
            yield str(
                tokenize_sentence(
                    line,
                    scheme,
                    marker=marker,
                    morphs=morphs,
                    script=script,
                    on_marker_collision=on_marker_collision,
                )
            )
        except OrthosylError as exc:
            if not skip_errors:
                raise_at_line(exc, lineno)
            if error_sink is not None:
                print(attach_line(exc, lineno), file=error_sink)
            yield line
