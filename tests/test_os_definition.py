"""The orthographic-syllable definition checked from the generating side.

The other syllabifier tests compare against frozen copies of earlier
implementations, which proves that a rewrite changed nothing but not that
the rules match the definition. Here each word is built from the
syllables it should split into, drawn class by class from the scripts'
tables, and the syllabifier must return exactly those units and kinds.

Abugida words are sequences of three unit forms:

- a consonant cluster C N? (H [ZWJ|ZWNJ]? C N?)* closed by an optional
  dependent vowel, or by a final halanta (optionally followed by
  ZWJ / ZWNJ) when no consonant follows;
- an independent vowel;
- a nasal consonant: an anusvara or chandrabindu that stands before a
  plosive, and the cluster it starts.

A cluster closed by a dependent vowel or no vowel, and an independent
vowel, may carry an anusvara or chandrabindu. It joins the unit on its
left unless the next code point is a plosive; then it starts the next
unit, as NasalConsonant. Visarga and other signs close a unit.

Alphabetic words are maximal C*V+ runs: a word-initial vowel run is its
own unit, a word-final consonant run joins the last unit, and a word
without vowels is one unit.

Words that NFC would change are drawn again, since the syllabifier sees
the normalized word.
"""

from __future__ import annotations

import random
import unicodedata

import pytest

from orthosyl.scripts import SUPPORTED_SCRIPTS, TABLES, CharClass
from orthosyl.syllabify import OSKind, syllabify, syllabify_alpha, syllabify_indic

WORDS_PER_SCRIPT = 2_000
_JOINERS = ("\u200c", "\u200d")  # ZWNJ, ZWJ


def _by_class(script) -> dict[CharClass, list[str]]:
    """The script's code points by table class, each NFC-stable on its own."""
    table = TABLES[script]
    out: dict[CharClass, list[str]] = {}
    for ch in map(chr, sorted(table.letters)):
        cls = table.classify(ch)
        if (cls is not CharClass.NON_SCRIPT and ch not in _JOINERS
                and unicodedata.is_normalized("NFC", ch)):
            out.setdefault(cls, []).append(ch)
    return out


class IndicGenerator:
    def __init__(self, script, rng: random.Random):
        table = TABLES[script]
        classes = _by_class(script)
        self.rng = rng
        self.consonants = classes[CharClass.CONSONANT]
        self.plosives = [ch for ch in self.consonants if table.is_plosive(ch)]
        self.nuktas = classes.get(CharClass.NUKTA, [])
        self.halantas = classes[CharClass.HALANTA]
        self.matras = classes[CharClass.DEPENDENT_VOWEL]
        self.vowels = classes[CharClass.INDEPENDENT_VOWEL]
        self.nasals = (classes.get(CharClass.ANUSVARA, [])
                       + classes.get(CharClass.CHANDRABINDU, []))
        self.signs = classes.get(CharClass.VISARGA, []) + classes.get(CharClass.OTHER_SIGN, [])

    def _consonant(self, plosive: bool = False) -> str:
        rng = self.rng
        ch = rng.choice(self.plosives if plosive else self.consonants)
        if self.nuktas and rng.random() < 0.15:
            ch += rng.choice(self.nuktas)
        return ch

    def _cluster(self, plosive_first: bool) -> str:
        rng = self.rng
        text = self._consonant(plosive_first)
        while rng.random() < 0.3:
            text += rng.choice(self.halantas)
            if rng.random() < 0.2:
                text += rng.choice(_JOINERS)
            text += self._consonant()
        return text

    def word(self) -> list[tuple[str, OSKind]]:
        """A word as its units: (text, kind) pairs."""
        rng = self.rng
        # each unit as (text, kind, nasal sign or "", trailing sign or ""):
        # where a nasal sign goes is decided once the next unit is known
        units = []
        bare_halanta = False
        for _ in range(rng.randint(1, 5)):
            # a consonant right after a bare final halanta would continue
            # its cluster, so only an independent vowel follows one
            if bare_halanta or rng.random() < 0.2:
                text, kind, final_halanta = rng.choice(self.vowels), OSKind.INDEPENDENT_VOWEL, False
            else:
                text, kind = self._cluster(rng.random() < 0.4), OSKind.CONSONANT_CORE
                final_halanta = rng.random() < 0.1
                if final_halanta:
                    text += rng.choice(self.halantas)
                    if rng.random() < 0.3:
                        text += rng.choice(_JOINERS)
                elif rng.random() < 0.7:
                    text += rng.choice(self.matras)
            nasal = rng.choice(self.nasals) if not final_halanta and rng.random() < 0.3 else ""
            sign = rng.choice(self.signs) if rng.random() < 0.15 else ""
            units.append((text, kind, nasal, sign))
            bare_halanta = final_halanta and not sign

        out = []
        carried = ""
        for i, (text, kind, nasal, sign) in enumerate(units):
            if carried:
                text, kind, carried = carried + text, OSKind.NASAL_CONSONANT, ""
            following = units[i + 1][0] if i + 1 < len(units) else ""
            if nasal and not sign and following[:1] in self.plosives:
                carried = nasal  # stands for a nasal consonant: starts the next unit
            else:
                text += nasal
            out.append((text + sign, kind))
        return out


class AlphaGenerator:
    def __init__(self, script, rng: random.Random):
        classes = _by_class(script)
        self.rng = rng
        self.consonants = classes[CharClass.CONSONANT]
        self.vowels = classes[CharClass.INDEPENDENT_VOWEL]

    def _run(self, letters: list[str], lo: int, hi: int) -> str:
        return "".join(self.rng.choices(letters, k=self.rng.randint(lo, hi)))

    def word(self) -> list[tuple[str, OSKind]]:
        rng = self.rng
        if rng.random() < 0.1:
            return [(self._run(self.consonants, 1, 4), OSKind.CONSONANT_CORE)]
        out = []
        for i in range(rng.randint(1, 4)):
            onset = self._run(self.consonants, 0 if i == 0 else 1, 3)
            kind = OSKind.CONSONANT_CORE if onset else OSKind.INDEPENDENT_VOWEL
            out.append((onset + self._run(self.vowels, 1, 3), kind))
        if rng.random() < 0.4:
            text, kind = out[-1]
            out[-1] = (text + self._run(self.consonants, 1, 3), kind)
        return out


def generated_words(script, count: int, seed: int):
    """`count` NFC-stable words of `script` with their units, and how many
    drawn words NFC would have changed."""
    rng = random.Random(seed)
    gen = (IndicGenerator if script.is_abugida else AlphaGenerator)(script, rng)
    words, redrawn = [], 0
    while len(words) < count:
        units = gen.word()
        word = "".join(text for text, _ in units)
        if unicodedata.is_normalized("NFC", word):
            words.append((word, units))
        else:
            redrawn += 1
    return words, redrawn


@pytest.mark.parametrize("script", SUPPORTED_SCRIPTS, ids=lambda s: s.value)
def test_syllabifier_recovers_generated_units(script):
    forced = syllabify_indic if script.is_abugida else syllabify_alpha
    words, redrawn = generated_words(script, WORDS_PER_SCRIPT, seed=SUPPORTED_SCRIPTS.index(script))
    # the generator mostly draws normalized text, so few words are redrawn
    assert redrawn < WORDS_PER_SCRIPT // 4
    for word, units in words:
        assert [(u.text, u.kind) for u in forced(word, script)] == units, word
        assert [(u.text, u.kind) for u in syllabify(word)] == units, word


def test_generator_covers_every_rule():
    # the forms the definition names all occur among the generated words
    seen = set()
    for script in SUPPORTED_SCRIPTS:
        if not script.is_abugida:
            continue
        gen = IndicGenerator(script, random.Random(0))
        halantas, nasals = set(gen.halantas), set(gen.nasals)
        for word, units in generated_words(script, 300, seed=1)[0]:
            for text, kind in units:
                seen.add(kind)
                if text[-1] in halantas or text[-2:-1] in halantas and text[-1] in _JOINERS:
                    seen.add("final halanta")
                if any(j in text[:-1] for j in _JOINERS):
                    seen.add("joiner in cluster")
                if kind is not OSKind.NASAL_CONSONANT and nasals & set(text):
                    seen.add("nasal joins left")
    assert seen >= {
        OSKind.CONSONANT_CORE, OSKind.INDEPENDENT_VOWEL, OSKind.NASAL_CONSONANT,
        "final halanta", "joiner in cluster", "nasal joins left",
    }
