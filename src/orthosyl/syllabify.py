r"""Orthographic-syllable segmentation of single words.

An orthographic syllable is a consonant-vowel chunk of written text: a run
of consonants plus the vowel that follows it. The definition is a grammar
over class letters: each code point of the (NFC) word maps to one letter
through its script's table, `ScriptTable.letters`, which `scripts.py`
builds (C consonant, P plosive consonant, N nukta, H halanta, U ZWJ/ZWNJ,
M dependent vowel, V independent vowel, A anusvara, B chandrabindu,
S visarga, O other sign, x a code point the script does not know), and one
regular expression per script family splits that string into units:

    abugida     [^CPVM]*(?:[CP]N*(?:HU*[CP]N*)*(?:HU*|M?(?:[AB](?!P))?)
                |[VM](?:[AB](?!P))?)[^CPNHMVAB]*|[^CPVM]+
    alphabetic  [^V]*V+(?:[^V]+\Z)?|[^V]+

The units are the slices of the word that the matches cover, and a unit's
kind is read off its match's class letters.

Words are NFC-normalized before segmentation and the concatenation of the
output units always reproduces the (normalized) word exactly. Every call
segments its word afresh; callers that see repeated words cache the
result (segment.segment_word does, for the OS unit scheme).
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum
from typing import NamedTuple

from .errors import EmptyInputError, MixedScriptError, UnsupportedScriptError
from .scripts import TABLES, ScriptId, _is_alpha_vowel, detect_script, get_table


class OSKind(Enum):
    CONSONANT_CORE = "ConsonantCore"
    INDEPENDENT_VOWEL = "IndependentVowel"
    NASAL_CONSONANT = "NasalConsonant"
    OTHER = "Other"


class OrthoSyllable(NamedTuple):
    """One unit: its text and kind. Immutable; it also equals the plain
    tuple (text, kind) and unpacks as one."""

    text: str
    kind: OSKind

    def __str__(self) -> str:
        return self.text


# Builds a unit from its (text, kind) tuple in C, skipping the NamedTuple
# class's Python-level __new__; `_units` calls it once per unit.
_new = tuple.__new__


# One orthographic syllable per match, by the rules that the syllabify_indic
# and syllabify_alpha docstrings give.
_INDIC_UNIT = re.compile(
    r"[^CPVM]*(?:[CP]N*(?:HU*[CP]N*)*(?:HU*|M?(?:[AB](?!P))?)|[VM](?:[AB](?!P))?)[^CPNHMVAB]*"
    r"|[^CPVM]+"
)
_ALPHA_UNIT = re.compile(r"[^V]*V+(?:[^V]+\Z)?|[^V]+")

# A unit's kind by the class letter it starts with; `_units` decides the
# kind of a unit that starts with any other class.
_KIND_OF_FIRST = {
    "C": OSKind.CONSONANT_CORE,
    "P": OSKind.CONSONANT_CORE,
    "A": OSKind.NASAL_CONSONANT,
    "B": OSKind.NASAL_CONSONANT,
    "V": OSKind.INDEPENDENT_VOWEL,
}
# syllabify tests every word against it and `_units` names the two kinds
# per unit: a global costs a fraction of an Enum member lookup
_UNSUPPORTED = ScriptId.UNSUPPORTED
_CONSONANT_CORE = OSKind.CONSONANT_CORE
_OTHER = OSKind.OTHER

# Why a script is refused, by the flag of the family that a scanner takes
_NOT_OF_FAMILY = {
    "is_abugida": "is not an abugida script; use syllabify_alpha",
    "is_alphabetic": "is not an alphabetic script; use syllabify_indic",
}


def _checked_word(word: str, script: ScriptId | None, family: str | None = None) -> str:
    """The syllabifier's input checks, in order: a nonempty word, a script with a
    table (unless None), of the `family` flag (unless None). Returns the word in NFC."""
    if not word:
        raise EmptyInputError("cannot syllabify an empty word")
    if script is not None:
        get_table(script)  # validate support
        if family is not None and not getattr(script, family):
            raise UnsupportedScriptError(f"{script.value} {_NOT_OF_FAMILY[family]}")
    return unicodedata.normalize("NFC", word)


def _units(word: str, matches: list[str], core: str) -> list[OrthoSyllable]:
    """Slice `word` by the lengths of its class-letter matches; a unit that
    starts with no class of `_KIND_OF_FIRST` is ConsonantCore if it holds
    one of the two letters in `core`, else Other."""
    first, second = core
    units = []
    start = 0
    for match in matches:
        end = start + len(match)
        kind = _KIND_OF_FIRST.get(match[0])
        if kind is None:
            kind = _CONSONANT_CORE if first in match or second in match else _OTHER
        units.append(_new(OrthoSyllable, (word[start:end], kind)))
        start = end
    return units


def syllabify_indic(word: str, script: ScriptId) -> list[OrthoSyllable]:
    """Segment an abugida-script word into orthographic syllables.

    The units are the matches of `_INDIC_UNIT` over the word's class
    letters. A consonant cluster is C(halanta C)* with nukta fused to its
    consonant. A bare consonant carries an implicit schwa and closes its
    unit; a dependent vowel attaches to the cluster and closes it; an
    independent vowel is a unit of its own. An anusvara/chandrabindu
    nasalizing the vowel joins the unit on its left, while one standing for
    a nasal consonant (next code point is a plosive) starts the next unit.

    A unit's kind is read off its own code points: NasalConsonant if it
    starts with anusvara/chandrabindu, else ConsonantCore if it holds a
    consonant, else IndependentVowel if it starts with one, else Other.
    """
    word = _checked_word(word, script, "is_abugida")
    classes = word.translate(TABLES[script].letters)
    return _units(word, _INDIC_UNIT.findall(classes), "CP")


def syllabify_alpha(
    word: str,
    script: ScriptId,
    vowels: frozenset[str] | None = None,
) -> list[OrthoSyllable]:
    """Segment an alphabetic-script word into maximal C*V+ runs.

    The units are the matches of `_ALPHA_UNIT` over the word's class
    letters. A word-initial vowel run is its own unit, a word-final
    consonant run attaches to the preceding unit, and a vowel-less word is a
    single unit. Casing is preserved. A letter of the script's ranges is a
    vowel iff the first code point of its case fold, or that code point's
    NFD base letter, is in the vowel set (short i and u, й and ў, only by
    the first), else a consonant; any other code point is never a vowel,
    even if the set lists it. `vowels`, any iterable of one-character
    strings, overrides the script's own set, `TABLES[script].vowel_set`,
    and names base letters: with set("aeiouy"), "café" is "ca fé".

    A unit's kind is IndependentVowel if it starts with a vowel, else
    ConsonantCore if it holds a vowel or consonant, else Other.
    """
    word = _checked_word(word, script, "is_alphabetic")
    letters = TABLES[script].letters
    if vowels is not None:
        # reclassify the word's own letters (C or V) under the override
        vowels = frozenset(vowels)
        letters = {
            cp: ("V" if _is_alpha_vowel(chr(cp), vowels) else "C") if letters[cp] in "CV"
            else letters[cp]
            for cp in set(map(ord, word)) if cp in letters
        }
    return _units(word, _ALPHA_UNIT.findall(word.translate(letters)), "VC")


def syllabify(word: str, script: ScriptId | None = None) -> list[OrthoSyllable]:
    """Segment a word, auto-detecting its script unless one is forced.

    With `script=None` the word's script is detected from its letters;
    words with no supported letters (punctuation, digits) come back as a
    single Other unit and mixed-script words raise MixedScriptError.
    With a forced script, words whose letters fall outside that script are
    returned whole as a single Other unit.
    """
    word = _checked_word(word, script)
    if script is None:
        script = detect_script(word)
        if script is _UNSUPPORTED:
            return [OrthoSyllable(word, _OTHER)]
    else:
        try:
            detected = detect_script(word)
        except MixedScriptError:
            detected = None
        if detected is not script:
            return [OrthoSyllable(word, _OTHER)]
    if script.is_abugida:
        return syllabify_indic(word, script)
    return syllabify_alpha(word, script)
