"""Exception hierarchy shared by all orthosyl modules.

Every data-level failure raises a subclass of :class:`OrthosylError` so the
CLI can map them uniformly to exit status 1.
"""

from typing import Callable, Iterable, Iterator, NoReturn, Sized


class OrthosylError(Exception):
    """Base class for all toolkit errors."""


class UnsupportedScriptError(OrthosylError):
    """Operation requested for a script the toolkit does not support."""


class MixedScriptError(OrthosylError):
    """A single word contains letters from two different supported scripts."""


class EmptyInputError(OrthosylError):
    """An operation that requires a nonempty word/corpus received an empty one."""


class MarkerCollisionError(OrthosylError):
    """Input text contains the word-boundary marker character."""


class MalformedStreamError(OrthosylError):
    """A token stream violates the boundary-marker invariants."""


class AlignmentError(OrthosylError):
    """Parallel inputs have mismatched line counts or missing references."""


class UndefinedCorrelationError(OrthosylError):
    """Pearson correlation requested for a constant (zero-variance) sequence."""


class ParameterError(OrthosylError):
    """A metric parameter is outside its legal range."""


class DegenerateCorpusError(OrthosylError):
    """A corpus statistic is undefined for this corpus (e.g. zero denominator)."""


class SplitSizeError(OrthosylError):
    """Requested split sizes exceed the corpus length."""


class CorpusDecodeError(OrthosylError):
    """Corpus file is not valid UTF-8."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(message)
        self.byte_offset = byte_offset


class LexiconFormatError(OrthosylError):
    """A morph lexicon file entry is malformed or inconsistent."""


def check_aligned(**corpora: Sized) -> None:
    """Raise AlignmentError, naming each input and its line count, unless the counts agree."""
    counts = [len(lines) for lines in corpora.values()]
    if len(set(counts)) > 1:
        raise AlignmentError(
            f"{', '.join(corpora)} are not aligned: "
            + " vs ".join(f"{count} lines" for count in counts)
        )


def attach_line(exc: OrthosylError, lineno: int) -> OrthosylError:
    """Attach a per-line error's 1-based line number and return the error.

    The message gains a "line N: " prefix and the exception a `lineno`
    attribute. It stays the same object, so its type and every other
    attribute (CorpusDecodeError.byte_offset, say) survive.
    """
    exc.lineno = lineno
    exc.args = (f"line {lineno}: {exc}",)
    return exc


def raise_at_line(exc: OrthosylError, lineno: int) -> NoReturn:
    """Raise a per-line error with its line number attached (see attach_line)."""
    raise attach_line(exc, lineno) from None


def map_lines(fn: Callable[[str], object], lines: Iterable[str]) -> Iterator:
    """Yield fn(line) per line, lazily; an OrthosylError from fn gets its line number."""
    for lineno, line in enumerate(lines, start=1):
        try:
            result = fn(line)
        except OrthosylError as exc:
            raise_at_line(exc, lineno)
        yield result
