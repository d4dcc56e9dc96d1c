"""Reference syllabifier: the scanners the package's must equal.

The abugida scanner closes each unit through a closure as it goes and
tests the nasalizer through `ScriptTable.is_plosive`; the alphabetic
scanner collects units and their kinds in one loop. Both compare classes
by Enum attribute. Kept only so that tests can compare `syllabify_indic`
and `syllabify_alpha` with them.
"""

from __future__ import annotations

import unicodedata

from orthosyl.errors import EmptyInputError, UnsupportedScriptError
from orthosyl.scripts import LETTER_CLASSES, CharClass, ScriptId, _UNIVERSAL_SIGNS, get_table
from orthosyl.syllabify import OrthoSyllable, OSKind

_NASAL_SIGNS = (CharClass.ANUSVARA, CharClass.CHANDRABINDU)


def syllabify_indic(word: str, script: ScriptId) -> list[OrthoSyllable]:
    """Segment an abugida-script word into orthographic syllables.

    A consonant cluster is C(halanta C)* with nukta fused to its consonant.
    A bare consonant carries an implicit schwa and closes its unit; a
    dependent vowel attaches to the cluster and closes it; an independent
    vowel is a unit of its own. An anusvara/chandrabindu nasalizing the
    vowel joins the unit on its left, while one standing for a nasal
    consonant (next code point is a plosive) starts the next unit.
    """
    if not word:
        raise EmptyInputError("cannot syllabify an empty word")
    table = get_table(script)
    if not script.is_abugida:
        raise UnsupportedScriptError(
            f"{script.value} is not an abugida script; use syllabify_alpha"
        )
    word = unicodedata.normalize("NFC", word)
    cls = [table.classify(ch) for ch in word]
    n = len(word)
    units: list[OrthoSyllable] = []
    start = 0  # the open unit is word[start:i]

    def nasalizes(i: int) -> bool:
        # c1 at i is anusvara/chandrabindu; nasalizer unless a plosive follows
        return not (i + 1 < n and table.is_plosive(word[i + 1]))

    def close(i: int) -> None:
        nonlocal start
        if start == i:
            return
        first = cls[start]
        if first in _NASAL_SIGNS:
            kind = OSKind.NASAL_CONSONANT
        elif CharClass.CONSONANT in cls[start:i]:
            kind = OSKind.CONSONANT_CORE
        elif first is CharClass.INDEPENDENT_VOWEL:
            kind = OSKind.INDEPENDENT_VOWEL
        else:
            kind = OSKind.OTHER
        units.append(OrthoSyllable(word[start:i], kind))
        start = i

    def absorb_nasalizer(i: int) -> int:
        if i < n and cls[i] in _NASAL_SIGNS and nasalizes(i):
            i += 1
        return i

    i = 0
    while i < n:
        k = cls[i]
        i += 1
        if k is CharClass.CONSONANT:
            # consume the whole cluster C(halanta C)*, nukta fused
            while True:
                while i < n and cls[i] is CharClass.NUKTA:
                    i += 1
                if i < n and cls[i] is CharClass.HALANTA:
                    i += 1
                    while i < n and word[i] in _UNIVERSAL_SIGNS:
                        i += 1
                    if i < n and cls[i] is CharClass.CONSONANT:
                        i += 1
                        continue  # cluster grows through the halanta
                    # word-final (or dangling) halanta attaches
                else:
                    # a dependent vowel closes the cluster, and so does the
                    # implicit schwa before anything else; either takes a
                    # nasalizer along
                    if i < n and cls[i] is CharClass.DEPENDENT_VOWEL:
                        i += 1
                    i = absorb_nasalizer(i)
                break
            close(i)
        elif k is CharClass.INDEPENDENT_VOWEL or k is CharClass.DEPENDENT_VOWEL:
            # a dependent vowel here is a stray matra (malformed input):
            # like an independent vowel it is a unit of its own
            i = absorb_nasalizer(i)
            close(i)
        elif k in _NASAL_SIGNS or k is CharClass.HALANTA or k is CharClass.NUKTA:
            # a nasal consonant opens the next unit and fuses with the
            # following cluster; a stray joiner (malformed input) carries
            # into whatever follows
            pass
        elif start == i - 1 and units:
            # visarga, other signs, and non-script marks attach leftwards
            last = units[-1]
            units[-1] = OrthoSyllable(last.text + word[i - 1], last.kind)
            start = i
    close(n)
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
    classifies as vowels (its vowel set, matched case-insensitively and
    through accents), so a code point outside the script's letter ranges is
    never a vowel. A `vowels` override reclassifies the script's letters
    only: a letter is a vowel iff its case fold starts with one of `vowels`
    or with a letter whose NFD base letter is one of them (except short i
    and short u, й and ў), else a consonant.
    """
    if not word:
        raise EmptyInputError("cannot syllabify an empty word")
    table = get_table(script)
    if not script.is_alphabetic:
        raise UnsupportedScriptError(
            f"{script.value} is not an alphabetic script; use syllabify_indic"
        )
    word = unicodedata.normalize("NFC", word)
    cls = [table.classify(ch) for ch in word]
    if vowels is None:
        vowel = [k is CharClass.INDEPENDENT_VOWEL for k in cls]
    else:
        vowel = []
        for k, ch in zip(cls, word):
            first = ch.casefold()[:1]
            base = unicodedata.normalize("NFD", first)[:1]
            vowel.append(k in LETTER_CLASSES and (
                first in vowels or (first not in "йў" and base in vowels)
            ))
    units: list[OrthoSyllable] = []
    has_consonant = any(k in LETTER_CLASSES and not v for k, v in zip(cls, vowel))
    i, n = 0, len(word)
    while i < n:
        start = i
        while i < n and not vowel[i]:
            i += 1
        if i == n:
            # trailing run without a vowel
            if units:
                last = units[-1]
                units[-1] = OrthoSyllable(last.text + word[start:], last.kind)
            else:
                kind = OSKind.CONSONANT_CORE if has_consonant else OSKind.OTHER
                units.append(OrthoSyllable(word, kind))
            break
        while i < n and vowel[i]:
            i += 1
        kind = OSKind.INDEPENDENT_VOWEL if vowel[start] else OSKind.CONSONANT_CORE
        units.append(OrthoSyllable(word[start:i], kind))
    return units
