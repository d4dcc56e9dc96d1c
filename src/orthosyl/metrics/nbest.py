"""Moses-style n-best lists and word-level rescoring of sub-word output.

Entry format, one per line, exactly four fields separated by " ||| ":

    sentence_id ||| token sequence ||| feature text ||| model_score

Rescoring desegments each entry's sub-word tokens back to words and appends
the smoothed word-level BLEU against the matching reference as a fifth
" ||| word_bleu" field, preserving entry order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import (
    AlignmentError,
    MalformedStreamError,
    OrthosylError,
    ascii_float,
    ascii_int,
    raise_at_line,
)
from ..segment import DEFAULT_MARKER, check_marker, detokenize
from .bleu import DEFAULT_MAX_N, check_max_n, sentence_bleu_smoothed

_SEP = " ||| "


@dataclass(frozen=True)
class NBestEntry:
    sentence_id: int
    tokens: tuple[str, ...]
    features: str
    model_score: float
    word_bleu: float | None = None
    score_text: str | None = None  # original field text, kept verbatim
    lineno: int | None = field(default=None, compare=False)  # in the parsed file

    def format(self) -> str:
        fields = [
            str(self.sentence_id),
            " ".join(self.tokens),
            self.features,
            self.score_text if self.score_text is not None else f"{self.model_score:g}",
        ]
        if self.word_bleu is not None:
            fields.append(f"{self.word_bleu:.4f}")
        return _SEP.join(fields)


@dataclass(frozen=True)
class NBestList:
    entries: tuple[NBestEntry, ...]
    source: object = field(default=None, compare=False)  # the parsed file, for errors

    def format_lines(self) -> list[str]:
        return [entry.format() for entry in self.entries]


def parse_nbest(lines: Iterable[str], source: object = None) -> NBestList:
    """Parse n-best lines, enforcing nondecreasing sentence ids.

    `source`, the path the lines were read from, opens each error's message
    (see errors.attach_line) and is kept on the list for rescore_nbest's.
    """
    entries: list[NBestEntry] = []
    last_id = None
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(_SEP)
        if len(fields) != 4:
            raise_at_line(MalformedStreamError(
                f"expected 4 ' ||| '-separated fields, got {len(fields)}"
            ), lineno, source)
        id_text = fields[0].strip()
        try:
            sentence_id = ascii_int(id_text)
        except ValueError:
            raise_at_line(MalformedStreamError(
                f"sentence id must be ASCII decimal digits, got {id_text!r}"
            ), lineno, source)
        try:
            model_score = ascii_float(fields[3].strip())
        except ValueError as exc:
            raise_at_line(MalformedStreamError(str(exc)), lineno, source)
        if last_id is not None and sentence_id < last_id:
            raise_at_line(MalformedStreamError(
                f"sentence ids must be nondecreasing ({sentence_id} after {last_id})"
            ), lineno, source)
        last_id = sentence_id
        entries.append(
            NBestEntry(
                sentence_id=sentence_id,
                tokens=tuple(fields[1].split()),
                features=fields[2],
                model_score=model_score,
                score_text=fields[3],
                lineno=lineno,
            )
        )
    return NBestList(tuple(entries), source)


def rescore_nbest(
    nbest: NBestList,
    refs: Sequence[str],
    marker: str = DEFAULT_MARKER,
    max_n: int = DEFAULT_MAX_N,
) -> NBestList:
    """Append word-level smoothed BLEU to every entry of a sub-word n-best list.

    Each entry's tokens are desegmented to words via the boundary marker and
    scored against the word-level reference with the same sentence id. The
    parameters are checked before the first entry; a bad one raises without
    a line number. Errors in an entry name its line, and the list's source,
    if parse_nbest read it.
    """
    check_marker(marker)
    check_max_n(max_n)
    rescored: list[NBestEntry] = []
    ref_id, ref_words = None, ()
    for entry in nbest.entries:
        sentence_id = entry.sentence_id
        try:
            if sentence_id != ref_id:  # ids run in blocks: split each reference once
                if not (0 <= sentence_id < len(refs)):
                    raise AlignmentError(
                        f"sentence id {sentence_id} has no reference "
                        f"(got {len(refs)} reference lines)"
                    )
                ref_id, ref_words = sentence_id, tuple(refs[sentence_id].split())
            words = detokenize(entry.tokens, marker).split()
        except OrthosylError as exc:
            if entry.lineno is None:
                raise
            raise_at_line(exc, entry.lineno, nbest.source)
        score = sentence_bleu_smoothed(words, ref_words, max_n=max_n)
        # positional, in field order: a direct call costs half of dataclasses.replace
        rescored.append(NBestEntry(sentence_id, entry.tokens, entry.features,
                                   entry.model_score, score, entry.score_text, entry.lineno))
    return NBestList(tuple(rescored), nbest.source)
