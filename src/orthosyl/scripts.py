"""Code-point classification for the supported scripts.

Each script has one table, `ScriptTable.letters`: a map from code point to
class letter, one letter per class the program tells apart (see
`_CLASS_OF_LETTER`). It is the str.translate table that the syllabify
grammar runs on, and `classify`, `is_plosive` and script detection read it
too.

The tables hold only what Unicode does not already say. A code point's
general category decides the non-letters: in an Indic block, an assigned
code point that is not a letter or mark (L*, M*) is an other sign, and of
the Latin and Cyrillic ranges only the letters are classified. An Indic
letter or mark takes the class that its Unicode name states (see
`_name_class`): a sign keyword such as VIRAMA or NUKTA, a vowel letter, a
stop of the five articulation rows (a plosive), or any other letter (a
consonant). Eight code points whose names do not give their class are
classified by hand (`_BY_HAND`): Gurmukhi's adak bindi, bindi, tippi, iri
and ura, Oriya's overline, and Kannada's jihvamuliya and upadhmaniya. The
Latin and Cyrillic vowel sets name base letters only (aeiouæœøı,
аеиоуыэюяієѣѵѫ) and Unicode's canonical decomposition supplies the
accented vowels (see `_is_alpha_vowel`). All eleven tables are built at
import, so classification and script detection are dict lookups per code
point.
"""

from __future__ import annotations

import re
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

_LATIN_VOWELS = frozenset("aeiouæœøı")
_CYRILLIC_VOWELS = frozenset("аеиоуыэюяієѣѵѫ")

# Zero-width joiner / non-joiner attach to the current unit in any script:
# every table gives them the letter U, an other sign.
_UNIVERSAL_SIGNS = frozenset({"‌", "‍"})

# What the Unicode name of an Indic letter or mark says of its class. A
# name is read after the script's name, its first word in all nine blocks.
# A sign keyword decides first; then a vowel letter is V, a stop of the five
# articulation rows (velar .. labial, each row's nasal excluded) is a
# plosive P, any other letter a consonant C, and the rest other signs.
_SIGN_KEYWORDS = {
    "VIRAMA": "H",
    "NUKTA": "N",
    "ANUSVARA": "A",
    "CANDRABINDU": "B",
    "VISARGA": "S",
    "VOWEL SIGN": "M",
    "LENGTH MARK": "M",
}
_VOWEL_NAME = re.compile(
    r"VOWEL .*|LETTER (?:VOCALIC \w+|(?:CANDRA |SHORT |ARCHAIC )?[AEIOU]+W?)"
)
_PLOSIVE_NAME = re.compile(r"LETTER (?:K|G|C|J|TT|DD|T|D|P|B)H?A")

# The letters and marks whose names do not give their class.
_BY_HAND = {
    0x0A01: "B",  # gurmukhi adak bindi
    0x0A02: "A",  # gurmukhi bindi
    0x0A70: "A",  # gurmukhi tippi
    0x0A72: "V",  # gurmukhi iri
    0x0A73: "V",  # gurmukhi ura
    0x0B55: "M",  # oriya overline
    0x0CF1: "C",  # kannada jihvamuliya
    0x0CF2: "C",  # kannada upadhmaniya
}


def _name_class(ch: str) -> str:
    """The class letter that the Unicode name of an Indic letter or mark states."""
    name = unicodedata.name(ch).partition(" ")[2]
    for keyword, letter in _SIGN_KEYWORDS.items():
        if keyword in name:
            return letter
    if _VOWEL_NAME.fullmatch(name):
        return "V"
    if _PLOSIVE_NAME.fullmatch(name):
        return "P"
    return "C" if name.startswith("LETTER ") else "O"


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
    known = {}
    for cp in range(start, start + _BLOCK_SIZE):
        category = unicodedata.category(chr(cp))
        if category == "Cn":
            continue  # unassigned in this script
        if category[0] not in "LM":
            known[cp] = "O"
        else:
            known[cp] = _BY_HAND.get(cp) or _name_class(chr(cp))
    return _table(script, start, start + _BLOCK_SIZE - 1, known)


def _is_alpha_vowel(letter: str, vowels: frozenset[str]) -> bool:
    """The alphabetic vowel rule: a letter is a vowel iff the first code point
    of its case fold, or that code point's NFD base letter, is in the set;
    short i and u (й, ў) are letters of their own, not и and у with a breve."""
    first = letter.casefold()[:1]
    base = unicodedata.normalize("NFD", first)[:1]
    return first in vowels or (base in vowels and first not in "йў")


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
