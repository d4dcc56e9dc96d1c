"""Orthographic-syllable segmentation of single words.

An orthographic syllable is a consonant-vowel chunk of written text: a run
of consonants plus the vowel that follows it. For abugida scripts the
segmenter is a left-to-right state machine over classified code points;
for alphabetic scripts it scans maximal C*V+ runs.

Words are NFC-normalized before segmentation and the concatenation of the
output units always reproduces the (normalized) word exactly. Every call
segments its word afresh; callers that see repeated words cache the
result (segment.segment_word does, for the OS unit scheme).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum

from .errors import EmptyInputError, MixedScriptError, UnsupportedScriptError
from .scripts import (
    CharClass,
    ScriptId,
    _UNIVERSAL_SIGNS,
    detect_script,
    get_table,
)


class OSKind(Enum):
    CONSONANT_CORE = "ConsonantCore"
    INDEPENDENT_VOWEL = "IndependentVowel"
    NASAL_CONSONANT = "NasalConsonant"
    OTHER = "Other"


@dataclass(frozen=True)
class OrthoSyllable:
    text: str
    kind: OSKind

    def __str__(self) -> str:
        return self.text


# Classes and kinds bound to module globals: the scanners compare them per
# code point, and an Enum member lookup costs several times a global one.
_CONSONANT = CharClass.CONSONANT
_INDEPENDENT_VOWEL = CharClass.INDEPENDENT_VOWEL
_DEPENDENT_VOWEL = CharClass.DEPENDENT_VOWEL
_HALANTA = CharClass.HALANTA
_NUKTA = CharClass.NUKTA
_ANUSVARA = CharClass.ANUSVARA
_CHANDRABINDU = CharClass.CHANDRABINDU

_OS_CONSONANT_CORE = OSKind.CONSONANT_CORE
_OS_INDEPENDENT_VOWEL = OSKind.INDEPENDENT_VOWEL
_OS_NASAL_CONSONANT = OSKind.NASAL_CONSONANT
_OS_OTHER = OSKind.OTHER
_UNSUPPORTED = ScriptId.UNSUPPORTED


def syllabify_indic(word: str, script: ScriptId) -> list[OrthoSyllable]:
    """Segment an abugida-script word into orthographic syllables.

    A consonant cluster is C(halanta C)* with nukta fused to its consonant.
    A bare consonant carries an implicit schwa and closes its unit; a
    dependent vowel attaches to the cluster and closes it; an independent
    vowel is a unit of its own. An anusvara/chandrabindu nasalizing the
    vowel joins the unit on its left, while one standing for a nasal
    consonant (next code point is a plosive) starts the next unit.

    A unit's kind is read off its own code points: NasalConsonant if it
    starts with anusvara/chandrabindu, else ConsonantCore if it holds a
    consonant, else IndependentVowel if it starts with one, else Other.
    """
    if not word:
        raise EmptyInputError("cannot syllabify an empty word")
    table = get_table(script)
    if not script.is_abugida:
        raise UnsupportedScriptError(
            f"{script.value} is not an abugida script; use syllabify_alpha"
        )
    word = unicodedata.normalize("NFC", word)
    cls = table.classify_word(word)
    cls.append(None)  # past the end no class matches, so no bounds checks
    n = len(word)
    ends: list[int] = []  # where each unit ends; the next one starts there
    start = 0  # the open unit is word[start:i]
    vowel_end = -1  # where the last unit closed on a vowel or implicit schwa
    i = 0
    while i < n:
        k = cls[i]
        i += 1
        if k is _CONSONANT:
            # consume the whole cluster C(halanta C)*, nukta fused
            while cls[i] is _NUKTA:
                i += 1
            while cls[i] is _HALANTA:
                i += 1
                while i < n and word[i] in _UNIVERSAL_SIGNS:
                    i += 1
                if cls[i] is not _CONSONANT:
                    break  # word-final (or dangling) halanta attaches
                i += 1  # cluster grows through the halanta
                while cls[i] is _NUKTA:
                    i += 1
            else:
                # a dependent vowel closes the cluster, and so does the
                # implicit schwa before anything else
                if cls[i] is _DEPENDENT_VOWEL:
                    i += 1
                vowel_end = i
            ends.append(i)
            start = i
        elif k is _INDEPENDENT_VOWEL or k is _DEPENDENT_VOWEL:
            # a dependent vowel here is a stray matra (malformed input):
            # like an independent vowel it is a unit of its own
            ends.append(i)
            start = vowel_end = i
        elif k is _ANUSVARA or k is _CHANDRABINDU:
            # right after a vowel, and with no plosive next, it nasalizes
            # that vowel and joins its unit; otherwise it is a nasal
            # consonant, which opens the next unit and fuses with the
            # following cluster
            if vowel_end == i - 1 and not (
                i < n and ord(word[i]) - table.block_start in table.plosive_offsets
            ):
                ends[-1] = start = i
        elif k is _HALANTA or k is _NUKTA:
            # a stray joiner (malformed input) carries into whatever follows
            pass
        elif start == i - 1 and ends:
            # visarga, other signs, and non-script marks attach leftwards
            ends[-1] = start = i
    if start < n:
        ends.append(n)

    units: list[OrthoSyllable] = []
    start = 0
    for end in ends:
        first = cls[start]
        if first is _CONSONANT:
            kind = _OS_CONSONANT_CORE
        elif first is _ANUSVARA or first is _CHANDRABINDU:
            kind = _OS_NASAL_CONSONANT
        elif _CONSONANT in cls[start:end]:
            kind = _OS_CONSONANT_CORE
        elif first is _INDEPENDENT_VOWEL:
            kind = _OS_INDEPENDENT_VOWEL
        else:
            kind = _OS_OTHER
        units.append(OrthoSyllable(word[start:end], kind))
        start = end
    return units


def syllabify_alpha(
    word: str,
    script: ScriptId,
    vowels: frozenset[str] | None = None,
) -> list[OrthoSyllable]:
    """Segment an alphabetic-script word into maximal C*V+ runs.

    A word-initial vowel run is its own unit, a word-final consonant run
    attaches to the preceding unit, and a vowel-less word is a single unit.
    Casing is preserved. Vowels are the letters that the script's table
    classifies as vowels (its vowel set, matched case-insensitively), so a
    code point outside the script's letter ranges is never a vowel. A
    `vowels` override is matched against each code point's case fold
    instead.
    """
    if not word:
        raise EmptyInputError("cannot syllabify an empty word")
    table = get_table(script)
    if not script.is_alphabetic:
        raise UnsupportedScriptError(
            f"{script.value} is not an alphabetic script; use syllabify_indic"
        )
    word = unicodedata.normalize("NFC", word)
    cls = table.classify_word(word)
    if vowels is None:
        vowel = [k is _INDEPENDENT_VOWEL for k in cls]
    else:
        vowel = [ch.casefold()[:1] in vowels for ch in word]
    if True not in vowel:
        kind = _OS_CONSONANT_CORE if _CONSONANT in cls else _OS_OTHER
        return [OrthoSyllable(word, kind)]
    # a unit ends wherever a vowel run gives way to a consonant run, except
    # before the word-final consonant run, which attaches leftwards
    n = len(word)
    ends = [i for i in range(1, n) if vowel[i - 1] and not vowel[i]]
    if not vowel[-1]:
        ends.pop()
    ends.append(n)

    units: list[OrthoSyllable] = []
    start = 0
    for end in ends:
        kind = _OS_INDEPENDENT_VOWEL if vowel[start] else _OS_CONSONANT_CORE
        units.append(OrthoSyllable(word[start:end], kind))
        start = end
    return units


def syllabify(word: str, script: ScriptId | None = None) -> list[OrthoSyllable]:
    """Segment a word, auto-detecting its script unless one is forced.

    With `script=None` the word's script is detected from its letters;
    words with no supported letters (punctuation, digits) come back as a
    single Other unit and mixed-script words raise MixedScriptError.
    With a forced script, words whose letters fall outside that script are
    returned whole as a single Other unit.
    """
    if not word:
        raise EmptyInputError("cannot syllabify an empty word")
    word = unicodedata.normalize("NFC", word)
    if script is None:
        detected = detect_script(word)
        if detected is _UNSUPPORTED:
            return [OrthoSyllable(word, _OS_OTHER)]
        script = detected
    else:
        get_table(script)  # validate support
        detected = _detect_or_none(word)
        if detected is not script:
            return [OrthoSyllable(word, _OS_OTHER)]
    if script.is_abugida:
        return syllabify_indic(word, script)
    return syllabify_alpha(word, script)


def _detect_or_none(word: str) -> ScriptId | None:
    """detect_script, with mixed-script words mapped to None (forced mode)."""
    try:
        detected = detect_script(word)
    except MixedScriptError:
        return None
    return None if detected is _UNSUPPORTED else detected
