"""Orthographic syllabification: golden segmentations and properties."""

import itertools
import pickle
import random
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

import syllabify_oracle
import textgen
from orthosyl.errors import (
    EmptyInputError,
    MixedScriptError,
    OrthosylError,
    UnsupportedScriptError,
)
from orthosyl.scripts import (
    SUPPORTED_SCRIPTS,
    TABLES,
    CharClass,
    ScriptId,
    classify,
    is_nasalizer,
)
from orthosyl.syllabify import (
    OrthoSyllable,
    OSKind,
    syllabify,
    syllabify_alpha,
    syllabify_indic,
)


def texts(units):
    return [u.text for u in units]


# The published segmentation examples, code-point exact.
GOLDEN_INDIC = [
    ("लक्षमी", ["ल", "क्ष", "मी"]),
    ("मुम्बई", ["मु", "म्ब", "ई"]),
    ("घरासमोरचा", ["घ", "रा", "स", "मो", "र", "चा"]),
    ("राजू", ["रा", "जू"]),
    ("घराबाहेर", ["घ", "रा", "बा", "हे", "र"]),
    ("जाऊ", ["जा", "ऊ"]),
    ("नको", ["न", "को"]),
]

# Hand-traced cases for the nasalization and cluster rules.
DERIVED_INDIC = [
    ("हंस", ["हं", "स"]),          # fricative after anusvara: attach left
    ("गंगा", ["ग", "ंगा"]),        # plosive after anusvara: new nasal unit
    ("लक्ष्मी", ["ल", "क्ष्मी"]),   # halanta chain keeps the cluster open
    ("हिंदी", ["हि", "ंदी"]),       # d is a plosive: anusvara is a nasal consonant
    ("उन्होंने", ["उ", "न्हों", "ने"]),  # n is a nasal, not a plosive: attach left
    ("संस्कृति", ["सं", "स्कृ", "ति"]),
    ("क्", ["क्"]),               # word-final halanta attaches
    ("अंक", ["अ", "ंक"]),          # independent vowel, then nasal consonant
    ("ऑंग्न", ["ऑ", "ंग्न"]),       # ग is a plosive: nasal unit after chandra o
]


@pytest.mark.parametrize("word,want", GOLDEN_INDIC)
def test_golden_devanagari(word, want):
    assert texts(syllabify_indic(word, ScriptId.DEVANAGARI)) == want
    assert texts(syllabify(word)) == want


@pytest.mark.parametrize("word,want", DERIVED_INDIC)
def test_derived_devanagari(word, want):
    assert texts(syllabify(word)) == want


GOLDEN_ALPHA = [
    ("lakshami", ["la", "ksha", "mi"]),
    ("mumbai", ["mu", "mbai"]),
    ("cool", ["cool"]),
    ("apple", ["a", "pple"]),
    ("xyz", ["xyz"]),
]


@pytest.mark.parametrize("word,want", GOLDEN_ALPHA)
def test_golden_latin(word, want):
    assert texts(syllabify_alpha(word, ScriptId.LATIN)) == want
    assert texts(syllabify(word)) == want


def test_latin_casing_preserved():
    assert texts(syllabify("Mumbai")) == ["Mu", "mbai"]
    assert texts(syllabify("APPLE")) == ["A", "PPLE"]


def test_cyrillic():
    assert texts(syllabify("привет")) == ["pri".replace("pri", "при"), "вет"]
    assert texts(syllabify("москва")) == ["мо", "сква"]


def test_custom_vowel_set():
    # treating y as a vowel changes the segmentation
    default = texts(syllabify_alpha("syllable", ScriptId.LATIN))
    custom = texts(
        syllabify_alpha("syllable", ScriptId.LATIN, vowels=frozenset("aeiouy"))
    )
    assert default == ["sylla", "ble"]
    assert custom == ["sy", "lla", "ble"]
    # the override reclassifies the script's letters only: a letter it
    # leaves out is a consonant, and a code point outside the letter ranges
    # is never a vowel, listed or case-folding to one
    assert syllabify_alpha("a", ScriptId.LATIN, vowels={"y"}) == [
        ("a", OSKind.CONSONANT_CORE)
    ]
    latin = TABLES[ScriptId.LATIN].vowel_set
    assert texts(syllabify_alpha("\u1e9abe", ScriptId.LATIN, vowels=latin)) == ["\u1e9abe"]
    assert syllabify_alpha("1ba", ScriptId.LATIN, vowels="1a") == [
        ("1ba", OSKind.CONSONANT_CORE)
    ]
    # an override names base letters, whose accented forms follow, and an
    # accented letter listed by itself still counts
    assert texts(syllabify_alpha("café", ScriptId.LATIN, vowels=set("aeiouy"))) == ["ca", "fé"]
    assert texts(syllabify_alpha("bäbä", ScriptId.LATIN, vowels={"ä"})) == ["bä", "bä"]


def _alpha_words(script, rng, count):
    """Seeded words over the script's letter ranges, the textgen alphabets,
    U+1E9A / U+1C82 / U+1C87 (which case-fold to vowels), digits, ZWJ and
    arbitrary code points."""
    table = TABLES[script]
    pool = (
        [chr(cp) for cp in sorted(table.letters) if table.letters[cp] != "x"]
        + list(textgen.ALPHABETS["latin"] + textgen.ALPHABETS["cyrillic"])
        + ["\u1e9a", "\u1c82", "\u1c87", "\u200d"] + list("0123456789")
    )
    for _ in range(count):
        chars = []
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.9:
                chars.append(rng.choice(pool))
            else:
                cp = rng.randrange(0x20, 0x110000)
                chars.append(chr(cp) if not 0xD800 <= cp <= 0xDFFF else "?")
        yield "".join(chars)


@pytest.mark.parametrize("script", [ScriptId.LATIN, ScriptId.CYRILLIC], ids=lambda s: s.value)
def test_own_vowel_set_is_the_default(script):
    own = TABLES[script].vowel_set
    for word in _alpha_words(script, random.Random(17), 20_000):
        assert syllabify_alpha(word, script, vowels=own) == syllabify_alpha(word, script), word


@pytest.mark.parametrize("word,script,want", [
    ("\u1e9abe", ScriptId.LATIN, ["\u1e9abe"]),
    ("\u1c82ба", ScriptId.CYRILLIC, ["\u1c82ба"]),
    ("\u1c87ба", ScriptId.CYRILLIC, ["\u1c87ба"]),
])
def test_vowels_come_from_the_table(word, script, want):
    # U+1E9A, U+1C82 and U+1C87 case-fold to a vowel but lie outside the
    # letter ranges, so, as for detect_script, they are not letters
    assert texts(syllabify_alpha(word, script)) == want


def test_other_scripts_round_trip():
    words = {
        ScriptId.BENGALI: "বাংলা",
        ScriptId.TAMIL: "தமிழ்",
        ScriptId.TELUGU: "తెలుగు",
        ScriptId.KANNADA: "ಕನ್ನಡ",
        ScriptId.MALAYALAM: "മലയാളം",
        ScriptId.GUJARATI: "ગુજરાતી",
        ScriptId.GURMUKHI: "ਪੰਜਾਬੀ",
        ScriptId.ORIYA: "ଓଡ଼ିଆ",
    }
    for script, word in words.items():
        units = syllabify(word)
        assert "".join(texts(units)) == unicodedata.normalize("NFC", word)
        assert all(u.text for u in units)


def test_dispatch_pass_through():
    assert texts(syllabify(",")) == [","]
    assert texts(syllabify("42")) == ["42"]
    assert syllabify("...")[0].kind is OSKind.OTHER


def test_dispatch_mixed_script():
    with pytest.raises(MixedScriptError):
        syllabify("घरmix")


def test_forced_script():
    assert texts(syllabify("घर", ScriptId.DEVANAGARI)) == ["घ", "र"]
    # foreign letters under a forced script pass through whole
    assert texts(syllabify("mix", ScriptId.DEVANAGARI)) == ["mix"]
    assert syllabify("mix", ScriptId.DEVANAGARI)[0].kind is OSKind.OTHER
    assert texts(syllabify("घरmix", ScriptId.DEVANAGARI)) == ["घरmix"]


def test_empty_word_errors():
    with pytest.raises(EmptyInputError):
        syllabify("")
    with pytest.raises(EmptyInputError):
        syllabify_indic("", ScriptId.DEVANAGARI)
    with pytest.raises(EmptyInputError):
        syllabify_alpha("", ScriptId.LATIN)


def test_wrong_family_errors():
    with pytest.raises(UnsupportedScriptError):
        syllabify_indic("abc", ScriptId.LATIN)
    with pytest.raises(UnsupportedScriptError):
        syllabify_alpha("घर", ScriptId.DEVANAGARI)


def test_kinds():
    kinds = [u.kind for u in syllabify("मुम्बई")]
    assert kinds == [OSKind.CONSONANT_CORE, OSKind.CONSONANT_CORE, OSKind.INDEPENDENT_VOWEL]
    assert syllabify("गंगा")[1].kind is OSKind.NASAL_CONSONANT
    assert syllabify("apple")[0].kind is OSKind.INDEPENDENT_VOWEL


def test_ortho_syllable_contract():
    # what callers of the public unit type rely on
    unit = OrthoSyllable("मु", OSKind.CONSONANT_CORE)
    assert unit == OrthoSyllable(text="मु", kind=OSKind.CONSONANT_CORE)
    assert (unit.text, unit.kind) == ("मु", OSKind.CONSONANT_CORE)
    assert repr(unit) == "OrthoSyllable(text='मु', kind=<OSKind.CONSONANT_CORE: 'ConsonantCore'>)"
    assert str(unit) == "मु"
    assert syllabify("मुम्बई")[0] == unit
    assert hash(syllabify("मुम्बई")[0]) == hash(unit)
    assert unit != OrthoSyllable("मु", OSKind.OTHER)
    assert len({unit, OrthoSyllable("मु", OSKind.CONSONANT_CORE)}) == 1
    with pytest.raises(AttributeError):
        unit.text = "म"
    again = pickle.loads(pickle.dumps(unit))
    assert again == unit and type(again) is OrthoSyllable


def test_ortho_syllable_is_a_text_kind_pair():
    # a unit is a full tuple: this pins that surface, README's Library section states it
    text, kind = syllabify("गंगा")[1]
    assert (text, kind) == ("ंगा", OSKind.NASAL_CONSONANT)
    assert syllabify("apple") == [("a", OSKind.INDEPENDENT_VOWEL), ("pple", OSKind.CONSONANT_CORE)]
    unit = OrthoSyllable("a", OSKind.OTHER)
    assert len(unit) == 2 and unit[0] == "a" and unit[1] is OSKind.OTHER
    assert unit._replace(text="b") == OrthoSyllable("b", OSKind.OTHER)
    assert sorted([OrthoSyllable("b", OSKind.OTHER), unit])[0] is unit  # ordered by text first
    with pytest.raises(TypeError):  # equal texts fall through to OSKind, which has no order
        sorted([unit, OrthoSyllable("a", OSKind.CONSONANT_CORE)])


def test_visarga_and_signs_attach_left():
    assert texts(syllabify("दुःख")) == ["दुः", "ख"]
    assert texts(syllabify("क़लम")) == ["क़", "ल", "म"]  # nukta fuses
    zwj_word = "क्‍ष"
    assert "".join(texts(syllabify(zwj_word))) == unicodedata.normalize("NFC", zwj_word)


@pytest.mark.parametrize("script", [s for s in SUPPORTED_SCRIPTS if s.is_abugida],
                         ids=lambda s: s.value)
def test_grammar_nasal_rule_is_is_nasalizer(script):
    # the grammar states the nasal rule again ([AB](?!P) in _INDIC_UNIT):
    # an anusvara or chandrabindu joins the unit on its left iff
    # is_nasalizer says so, whatever code point follows it
    table = TABLES[script]
    block = [chr(cp) for cp in range(table.block_start, table.block_end + 1)]
    base = next(ch for ch in block if table.classify(ch) is CharClass.CONSONANT)
    nasals = [ch for ch in block
              if table.classify(ch) in (CharClass.ANUSVARA, CharClass.CHANDRABINDU)]
    checked = 0
    for c1, c2 in itertools.product(nasals, block + ["\u200d", "\u200c", "x", None]):
        word = base + c1 + (c2 or "")
        if not unicodedata.is_normalized("NFC", word):
            continue
        first = syllabify_indic(word, script)[0].text
        assert is_nasalizer(c1, c2, script) == first.startswith(base + c1), (c1, c2)
        checked += 1
    assert checked > len(nasals) * 100


def test_no_os_has_two_dependent_vowels():
    from orthosyl.scripts import TABLES, CharClass

    table = TABLES[ScriptId.DEVANAGARI]
    for word in ("घरासमोरचा", "उन्होंने", "संस्कृति", "लक्ष्मी", "हिंदी"):
        for unit in syllabify(word):
            count = sum(
                1 for ch in unit.text
                if table.classify(ch) is CharClass.DEPENDENT_VOWEL
            )
            assert count <= 1


def test_consonant_core_shape_on_running_text():
    """Inside a unit, every non-final consonant is joined by halanta/nukta
    or licensed by the nasal rule; real prose should never violate this."""
    from pathlib import Path

    from orthosyl.scripts import TABLES, CharClass

    table = TABLES[ScriptId.DEVANAGARI]
    sample = Path(__file__).parent / "data" / "hindi_sample.txt"
    joiners = (CharClass.HALANTA, CharClass.NUKTA)
    for line in sample.read_text(encoding="utf-8").splitlines():
        for word in line.split():
            for unit in syllabify(word):
                if unit.kind is not OSKind.CONSONANT_CORE:
                    continue
                chars = unit.text
                classes = [table.classify(ch) for ch in chars]
                consonant_positions = [
                    i for i, c in enumerate(classes) if c is CharClass.CONSONANT
                ]
                assert consonant_positions
                for i in consonant_positions[:-1]:
                    follower = classes[i + 1]
                    assert follower in joiners, (word, unit.text)
                assert classes.count(CharClass.DEPENDENT_VOWEL) <= 1, unit.text


# --- property tests --------------------------------------------------------

DEVANAGARI_ALPHABET = (
    "कखगघङचछजझञटठडढणतथदधनपफबभमयरलवशषसह"
    "अआइईउऊऋएऐओऔ"
    "ािीुूृेैोौ"
    "्ंँः़"
)

devanagari_words = st.text(alphabet=DEVANAGARI_ALPHABET, min_size=1, max_size=14)
latin_words = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"), min_size=1, max_size=14
)
cyrillic_words = st.text(
    alphabet=st.sampled_from("абвгдежзиклмнопрстуфхцчшщыьэюя"),
    min_size=1,
    max_size=14,
)


@settings(max_examples=300)
@given(devanagari_words)
def test_lossless_devanagari(word):
    normalized = unicodedata.normalize("NFC", word)
    units = syllabify_indic(word, ScriptId.DEVANAGARI)
    assert "".join(texts(units)) == normalized
    assert all(u.text for u in units)


@settings(max_examples=200)
@given(latin_words)
def test_lossless_latin(word):
    units = syllabify_alpha(word, ScriptId.LATIN)
    assert "".join(texts(units)) == word
    assert all(u.text for u in units)


@settings(max_examples=200)
@given(cyrillic_words)
def test_lossless_cyrillic(word):
    units = syllabify_alpha(word, ScriptId.CYRILLIC)
    assert "".join(texts(units)) == word


@settings(max_examples=200)
@given(devanagari_words)
def test_deterministic(word):
    first = texts(syllabify_indic(word, ScriptId.DEVANAGARI))
    second = texts(syllabify_indic(word, ScriptId.DEVANAGARI))
    assert first == second


@settings(max_examples=200)
@given(st.one_of(devanagari_words, latin_words, cyrillic_words))
def test_idempotent_boundaries(word):
    try:
        units = syllabify(word)
    except MixedScriptError:
        return
    for unit in units:
        again = syllabify(unit.text)
        assert texts(again) == [unit.text]


@st.composite
def indic_block_words(draw):
    """A script and a word of code points from anywhere in its block.

    Unassigned offsets, stray matras and halantas, nukta, visarga and
    ZWJ / ZWNJ all turn up, in any order.
    """
    script = draw(st.sampled_from([s for s in SUPPORTED_SCRIPTS if s.is_abugida]))
    start = TABLES[script].block_start
    alphabet = st.one_of(
        st.integers(0, 0x7F).map(lambda off: chr(start + off)),
        st.sampled_from(["\u200c", "\u200d"]),
    )
    return script, draw(st.text(alphabet=alphabet, min_size=1, max_size=14))


def _kind_from_classes(text, script):
    classes = [classify(ch, script) for ch in text]
    if classes[0] in (CharClass.ANUSVARA, CharClass.CHANDRABINDU):
        return OSKind.NASAL_CONSONANT
    if CharClass.CONSONANT in classes:
        return OSKind.CONSONANT_CORE
    if classes[0] is CharClass.INDEPENDENT_VOWEL:
        return OSKind.INDEPENDENT_VOWEL
    return OSKind.OTHER


@settings(max_examples=500)
@given(indic_block_words())
def test_kind_follows_unit_classes(script_word):
    # each unit's kind is read off the classes of its own code points
    script, word = script_word
    units = syllabify_indic(word, script)
    assert "".join(texts(units)) == unicodedata.normalize("NFC", word)
    for unit in units:
        assert unit.kind is _kind_from_classes(unit.text, script), (word, unit)


# --- equality with the reference scanners ---------------------------------

# Offsets of the shared Indic layout that the scanner's rules turn on:
# chandrabindu, anusvara, visarga, an independent vowel, plosive and
# non-plosive consonants, nukta, a dependent vowel and halanta.
_RULE_OFFSETS = (0x01, 0x02, 0x03, 0x05, 0x15, 0x17, 0x24, 0x2F, 0x38, 0x3C, 0x3E, 0x4D)


def _block(script):
    table = TABLES[script]
    return st.integers(table.block_start, table.block_end).map(chr)


@st.composite
def any_script_words(draw):
    """A script (or Unsupported) and a word, possibly empty, built mostly from
    that script's block (unassigned code points included), with ZWJ / ZWNJ,
    other blocks' code points, astral and arbitrary code points mixed in."""
    script = draw(st.sampled_from(SUPPORTED_SCRIPTS + (ScriptId.UNSUPPORTED,)))
    home = script if script in TABLES else ScriptId.DEVANAGARI
    start = TABLES[home].block_start
    rule = st.sampled_from(_RULE_OFFSETS).map(lambda off: chr(start + off))
    piece = st.one_of(
        rule,
        # two code points around a chandrabindu, anusvara or halanta
        st.tuples(rule, st.sampled_from((0x01, 0x02, 0x4D)), rule).map(
            lambda t: t[0] + chr(start + t[1]) + t[2]
        ),
        _block(home),
        st.sampled_from(["\u200c", "\u200d"]),
        st.sampled_from(SUPPORTED_SCRIPTS).flatmap(_block),
        st.characters(min_codepoint=0x10000, blacklist_categories=("Cs",)),
        st.characters(blacklist_categories=("Cs",)),
    )
    return script, "".join(draw(st.lists(piece, max_size=10)))


def outcome(fn, *args, **kwargs):
    """A call's (text, kind) units, or the type and message of its error."""
    try:
        return [(u.text, u.kind) for u in fn(*args, **kwargs)]
    except OrthosylError as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(any_script_words())
def test_indic_equals_oracle(script_word):
    script, word = script_word
    assert outcome(syllabify_indic, word, script) == outcome(
        syllabify_oracle.syllabify_indic, word, script
    )


@settings(max_examples=500, deadline=None)
@given(
    any_script_words(),
    st.none() | st.frozensets(st.sampled_from("aeiouyäöüаеиоуыэюяїйê"), max_size=8),
)
def test_alpha_equals_oracle(script_word, vowels):
    script, word = script_word
    kwargs = {} if vowels is None else {"vowels": vowels}
    assert outcome(syllabify_alpha, word, script, **kwargs) == outcome(
        syllabify_oracle.syllabify_alpha, word, script, **kwargs
    )


@pytest.mark.parametrize("letter", "CPNHUMVABSOx")
@pytest.mark.parametrize("script", SUPPORTED_SCRIPTS, ids=lambda s: s.value)
def test_input_never_passes_for_a_class_letter(script, letter):
    # the grammar runs over class letters; the same ASCII letters in the
    # word itself must segment as whatever the script's table makes of them
    fn, oracle = (
        (syllabify_indic, syllabify_oracle.syllabify_indic) if script.is_abugida
        else (syllabify_alpha, syllabify_oracle.syllabify_alpha)
    )
    start = TABLES[script].block_start
    rule = [chr(start + off) for off in _RULE_OFFSETS]
    for a, b in itertools.product(rule, rule):
        for word in (letter + a + b, a + letter + b, a + b + letter):
            assert outcome(fn, word, script) == outcome(oracle, word, script), word
