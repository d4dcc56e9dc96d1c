"""Code-point classification for the supported scripts.

Each script has one table, `ScriptTable.letters`: a map from code point to
class letter, one letter per class the program tells apart (see
`_CLASS_OF_LETTER`). It is the str.translate table that the syllabify
grammar runs on, and `classify`, `is_plosive` and script detection read it
too.

The tables hold only what Unicode does not already say. A code point's
general category decides the non-letters: in an Indic block, an assigned
code point that is not a letter or mark (L*, M*) is an other sign, and of
the Latin and Cyrillic ranges only the letters are classified. The rest is
hand-written. The nine supported Indic blocks (Devanagari .. Malayalam)
share the ISCII-derived layout, so one canonical offset -> class map of its
letters and marks is authored once and instantiated per block, and a small
per-script exception table patches the letters and marks that deviate from
it. A Latin or Cyrillic letter is a consonant or a vowel by the case-folded
vowel rule. All eleven tables are built at import, so classification and
script detection are dict lookups per code point.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from enum import Enum

from .errors import MixedScriptError, UnsupportedScriptError


class ScriptId(Enum):
    DEVANAGARI = "Devanagari"
    BENGALI = "Bengali"
    GURMUKHI = "Gurmukhi"
    GUJARATI = "Gujarati"
    ORIYA = "Oriya"
    TAMIL = "Tamil"
    TELUGU = "Telugu"
    KANNADA = "Kannada"
    MALAYALAM = "Malayalam"
    LATIN = "Latin"
    CYRILLIC = "Cyrillic"
    UNSUPPORTED = "Unsupported"

    # Script family, set on each member below as a plain attribute, which
    # costs less to read than a property testing `self in ...`.
    is_abugida: bool
    is_alphabetic: bool

    # Members are singletons, so identity is a valid hash, and it spares
    # every dict or cache keyed by a script a call to Enum's Python-level
    # __hash__.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, name: str) -> "ScriptId":
        try:
            return cls(name.strip().capitalize())
        except ValueError:
            raise UnsupportedScriptError(f"unknown script name: {name!r}") from None


class CharClass(Enum):
    INDEPENDENT_VOWEL = "IndependentVowel"
    DEPENDENT_VOWEL = "DependentVowel"
    CONSONANT = "Consonant"
    HALANTA = "Halanta"
    ANUSVARA = "Anusvara"
    CHANDRABINDU = "Chandrabindu"
    VISARGA = "Visarga"
    NUKTA = "Nukta"
    OTHER_SIGN = "OtherSign"
    NON_SCRIPT = "NonScript"


# Classes that make a code point a "letter" for script detection purposes.
# Combining marks, signs and punctuation never decide the script of a word.
LETTER_CLASSES = frozenset({CharClass.CONSONANT, CharClass.INDEPENDENT_VOWEL})

_INDIC_BLOCKS = {
    ScriptId.DEVANAGARI: 0x0900,
    ScriptId.BENGALI: 0x0980,
    ScriptId.GURMUKHI: 0x0A00,
    ScriptId.GUJARATI: 0x0A80,
    ScriptId.ORIYA: 0x0B00,
    ScriptId.TAMIL: 0x0B80,
    ScriptId.TELUGU: 0x0C00,
    ScriptId.KANNADA: 0x0C80,
    ScriptId.MALAYALAM: 0x0D00,
}
_BLOCK_SIZE = 0x80

for _script in ScriptId:
    _script.is_abugida = _script in _INDIC_BLOCKS
    _script.is_alphabetic = _script in (ScriptId.LATIN, ScriptId.CYRILLIC)
del _script

# Alphabetic ranges (inclusive). Only their letters (L*) are classified, not
# the signs among them: × ÷, Cyrillic's ҂ and its combining marks.
_LATIN_RANGES = ((0x41, 0x5A), (0x61, 0x7A), (0xC0, 0x24F))
_CYRILLIC_RANGES = ((0x400, 0x52F),)

_LATIN_VOWELS = frozenset(
    "aeiou"
    "àáâãäåāăą"
    "èéêëēĕėęě"
    "ìíîïĩīĭįı"
    "òóôõöøōŏő"
    "ùúûüũūŭůűų"
    "æœ"
)
_CYRILLIC_VOWELS = frozenset("аеёиоуыэюяіїєѣѵѫ")

# Zero-width joiner / non-joiner attach to the current unit in any script:
# every table gives them the letter U, an other sign.
_UNIVERSAL_SIGNS = frozenset({"‌", "‍"})


def _expand(spec: dict) -> dict:
    """Expand {offset-or-(lo,hi): class} into a flat offset -> class map."""
    out = {}
    for key, cls in spec.items():
        if isinstance(key, tuple):
            lo, hi = key
            for off in range(lo, hi + 1):
                out[off] = cls
        else:
            out[key] = cls
    return out


_C = CharClass

# Canonical map of the letters and marks of the shared Indic block layout,
# authored from the published code charts with Devanagari as the reference
# block. An offset it leaves out (avagraha, om, the Vedic tone marks) is an
# other sign, as is every code point that is not a letter or a mark.
_CANONICAL = _expand({
    (0x00, 0x01): _C.CHANDRABINDU,
    0x02: _C.ANUSVARA,
    0x03: _C.VISARGA,
    (0x04, 0x14): _C.INDEPENDENT_VOWEL,
    (0x15, 0x39): _C.CONSONANT,
    (0x3A, 0x3B): _C.DEPENDENT_VOWEL,
    0x3C: _C.NUKTA,
    (0x3E, 0x4C): _C.DEPENDENT_VOWEL,
    0x4D: _C.HALANTA,
    (0x4E, 0x4F): _C.DEPENDENT_VOWEL,
    (0x55, 0x57): _C.DEPENDENT_VOWEL,
    (0x58, 0x5F): _C.CONSONANT,    # nukta consonants
    (0x60, 0x61): _C.INDEPENDENT_VOWEL,
    (0x62, 0x63): _C.DEPENDENT_VOWEL,
    (0x72, 0x77): _C.INDEPENDENT_VOWEL,
    (0x78, 0x7F): _C.CONSONANT,
})

# Letters and marks that deviate from the canonical layout, per script.
_EXCEPTIONS: dict[ScriptId, dict] = {
    ScriptId.DEVANAGARI: {},
    ScriptId.BENGALI: _expand({
        0x00: _C.OTHER_SIGN,        # anji
        0x4E: _C.CONSONANT,         # khanda ta
        (0x70, 0x71): _C.CONSONANT, # ra with middle/lower diagonal
        0x7C: _C.ANUSVARA,          # vedic anusvara letter
        0x7E: _C.OTHER_SIGN,        # sandhi mark
    }),
    ScriptId.GURMUKHI: _expand({
        0x70: _C.ANUSVARA,          # tippi
        0x74: _C.OTHER_SIGN,        # ek onkar
        0x75: _C.OTHER_SIGN,        # yakash
    }),
    ScriptId.GUJARATI: _expand({
        (0x7A, 0x7C): _C.OTHER_SIGN,  # sukun/shadda/maddah-style signs
        (0x7D, 0x7F): _C.NUKTA,     # dotted/circled nukta-above marks
    }),
    ScriptId.ORIYA: {0x71: _C.CONSONANT},            # wa
    ScriptId.TAMIL: {},
    ScriptId.TELUGU: {0x04: _C.ANUSVARA},            # combining anusvara above
    ScriptId.KANNADA: _expand({
        (0x71, 0x72): _C.CONSONANT, # jihvamuliya, upadhmaniya
    }),
    ScriptId.MALAYALAM: _expand({
        0x00: _C.ANUSVARA,          # combining anusvara above
        0x04: _C.ANUSVARA,          # vedic anusvara
        0x3A: _C.CONSONANT,         # ttta
        (0x3B, 0x3C): _C.HALANTA,   # vertical bar / circular virama
        0x4E: _C.CONSONANT,         # dot reph
        (0x54, 0x56): _C.CONSONANT, # chillu m/y/lll
        0x5F: _C.INDEPENDENT_VOWEL, # archaic ii
    }),
}

# Stop consonants of the five articulation rows (velar, palatal, retroflex,
# dental, labial), each row's nasal excluded. Shared block layout, so the
# offsets hold for every Indic script; unassigned ones drop out per script.
_PLOSIVE_OFFSETS = frozenset(
    off
    for lo in (0x15, 0x1A, 0x1F, 0x24, 0x2A)
    for off in range(lo, lo + 4)
)


# Class letter -> the class it stands for. P is a plosive consonant, U is
# ZWJ or ZWNJ and x a code point the script does not know; the syllabify
# grammar runs on the letters.
_CLASS_OF_LETTER = {
    "C": CharClass.CONSONANT,
    "P": CharClass.CONSONANT,
    "N": CharClass.NUKTA,
    "H": CharClass.HALANTA,
    "U": CharClass.OTHER_SIGN,
    "M": CharClass.DEPENDENT_VOWEL,
    "V": CharClass.INDEPENDENT_VOWEL,
    "A": CharClass.ANUSVARA,
    "B": CharClass.CHANDRABINDU,
    "S": CharClass.VISARGA,
    "O": CharClass.OTHER_SIGN,
    "x": CharClass.NON_SCRIPT,
}
# The letter of an authored class; P, U and x are set by the builders.
_LETTER_OF_CLASS = {
    cls: letter for letter, cls in _CLASS_OF_LETTER.items() if letter not in "PUx"
}


@dataclass(frozen=True)
class ScriptTable:
    """Immutable per-script classification table.

    `letters` maps each code point the script knows, ZWJ and ZWNJ, and the
    class letters themselves to a class letter. A class letter maps to x
    unless the script owns it, so input text never passes for a class; a
    code point missing from the map is x.
    """

    script: ScriptId
    block_start: int
    block_end: int
    letters: dict = field(repr=False)
    vowel_set: frozenset = field(repr=False)

    def classify(self, ch: str) -> CharClass:
        return _CLASS_OF_LETTER[self.letters.get(ord(ch), "x")]

    def is_plosive(self, ch: str) -> bool:
        return self.letters.get(ord(ch)) == "P"


def _table(script: ScriptId, start: int, end: int, known: dict[int, str],
           vowel_set: frozenset = frozenset()) -> ScriptTable:
    """A table of the block start..end (inclusive) whose letters are
    `known`, over the class letters as x and under ZWJ/ZWNJ as U."""
    letters = dict.fromkeys(map(ord, _CLASS_OF_LETTER), "x")
    letters.update(known)
    letters.update(dict.fromkeys(map(ord, _UNIVERSAL_SIGNS), "U"))
    return ScriptTable(script, start, end, letters, vowel_set)


def _build_indic_table(script: ScriptId) -> ScriptTable:
    start = _INDIC_BLOCKS[script]
    exceptions = _EXCEPTIONS[script]
    known = {}
    for off in range(_BLOCK_SIZE):
        category = unicodedata.category(chr(start + off))
        if category == "Cn":
            continue  # unassigned in this script
        cls = CharClass.OTHER_SIGN  # unless a letter or mark the layout names
        if category[0] in "LM":
            cls = exceptions.get(off, _CANONICAL.get(off, cls))
        plosive = cls is CharClass.CONSONANT and off in _PLOSIVE_OFFSETS
        known[start + off] = "P" if plosive else _LETTER_OF_CLASS[cls]
    return _table(script, start, start + _BLOCK_SIZE - 1, known)


def _is_alpha_vowel(letter: str, vowels: frozenset[str]) -> bool:
    """The alphabetic vowel rule: a letter of the script's ranges is a vowel
    iff the first code point of its case fold is in the vowel set."""
    return letter.casefold()[:1] in vowels


def _build_alpha_table(script: ScriptId) -> ScriptTable:
    ranges = _LATIN_RANGES if script is ScriptId.LATIN else _CYRILLIC_RANGES
    vowels = _LATIN_VOWELS if script is ScriptId.LATIN else _CYRILLIC_VOWELS
    known = {
        cp: "V" if _is_alpha_vowel(chr(cp), vowels) else "C"
        for lo, hi in ranges
        for cp in range(lo, hi + 1)
        if unicodedata.category(chr(cp))[0] == "L"
    }
    return _table(script, ranges[0][0], ranges[-1][1], known, vowels)


TABLES: dict[ScriptId, ScriptTable] = {
    **{s: _build_indic_table(s) for s in _INDIC_BLOCKS},
    ScriptId.LATIN: _build_alpha_table(ScriptId.LATIN),
    ScriptId.CYRILLIC: _build_alpha_table(ScriptId.CYRILLIC),
}

SUPPORTED_SCRIPTS = tuple(TABLES)

# Letter -> the one script whose table classifies it as a letter (the
# blocks are disjoint, so there is never a second one).
_SCRIPT_OF_LETTER = {
    chr(cp): script
    for script, table in TABLES.items()
    for cp, letter in table.letters.items()
    if _CLASS_OF_LETTER[letter] in LETTER_CLASSES
}


def get_table(script: ScriptId) -> ScriptTable:
    table = TABLES.get(script)
    if table is None:
        raise UnsupportedScriptError(f"script {script.value} is not supported")
    return table


def classify(ch: str, script: ScriptId) -> CharClass:
    """Classify a single code point under the given script's table."""
    return get_table(script).classify(ch)


def detect_script(word: str) -> ScriptId:
    """Script of a word, decided by its letter code points only.

    Combining marks, digits and punctuation never decide. Letters from two
    different supported scripts raise MixedScriptError; a word with no
    supported letters is Unsupported.
    """
    found: ScriptId | None = None
    for ch in word:
        script = _SCRIPT_OF_LETTER.get(ch)
        if script is None:
            continue
        if found is None:
            found = script
        elif script is not found:
            raise MixedScriptError(
                f"word {word!r} mixes {found.value} and {script.value} letters"
            )
    return found if found is not None else ScriptId.UNSUPPORTED


def is_nasalizer(c1: str, c2: str | None, script: ScriptId) -> bool:
    """True iff c1 nasalizes the unit on its left rather than starting one.

    c1 must classify as anusvara or chandrabindu, and the following code
    point (if any) must not be a plosive consonant.
    """
    table = get_table(script)
    if not script.is_abugida:
        raise UnsupportedScriptError(
            f"nasalization rules apply to abugida scripts only, not {script.value}"
        )
    if table.classify(c1) not in (CharClass.ANUSVARA, CharClass.CHANDRABINDU):
        return False
    if c2 is None:
        return True
    return not table.is_plosive(c2)
