"""Code-point classification: tables, script detection, nasalization."""

import unicodedata

import pytest
from hypothesis import given, strategies as st

from orthosyl.errors import MixedScriptError, UnsupportedScriptError
from orthosyl.scripts import (
    SUPPORTED_SCRIPTS,
    TABLES,
    CharClass,
    LETTER_CLASSES,
    ScriptId,
    classify,
    detect_script,
    is_nasalizer,
    _BY_HAND,
    _CYRILLIC_RANGES,
    _LATIN_RANGES,
    _name_class,
)

INDIC = [s for s in SUPPORTED_SCRIPTS if s.is_abugida]


def _block_classes(table):
    """(code point, class) for each code point of the table's block that it classifies."""
    for cp in range(table.block_start, table.block_end + 1):
        cls = table.classify(chr(cp))
        if cls is not CharClass.NON_SCRIPT:
            yield cp, cls


@pytest.mark.parametrize(
    "ch,script,want",
    [
        ("ल", ScriptId.DEVANAGARI, CharClass.CONSONANT),
        ("ी", ScriptId.DEVANAGARI, CharClass.DEPENDENT_VOWEL),
        ("q", ScriptId.DEVANAGARI, CharClass.NON_SCRIPT),
        ("अ", ScriptId.DEVANAGARI, CharClass.INDEPENDENT_VOWEL),
        ("्", ScriptId.DEVANAGARI, CharClass.HALANTA),
        ("ं", ScriptId.DEVANAGARI, CharClass.ANUSVARA),
        ("ँ", ScriptId.DEVANAGARI, CharClass.CHANDRABINDU),
        ("ः", ScriptId.DEVANAGARI, CharClass.VISARGA),
        ("़", ScriptId.DEVANAGARI, CharClass.NUKTA),
        ("।", ScriptId.DEVANAGARI, CharClass.OTHER_SIGN),
        ("१", ScriptId.DEVANAGARI, CharClass.OTHER_SIGN),
        ("க", ScriptId.TAMIL, CharClass.CONSONANT),
        ("ா", ScriptId.TAMIL, CharClass.DEPENDENT_VOWEL),
        ("்", ScriptId.TAMIL, CharClass.HALANTA),
        ("ം", ScriptId.MALAYALAM, CharClass.ANUSVARA),
        ("ക", ScriptId.MALAYALAM, CharClass.CONSONANT),
        ("ൺ", ScriptId.MALAYALAM, CharClass.CONSONANT),  # chillu
        ("ਂ", ScriptId.GURMUKHI, CharClass.ANUSVARA),  # bindi
        ("ੰ", ScriptId.GURMUKHI, CharClass.ANUSVARA),  # tippi
        ("\u0a01", ScriptId.GURMUKHI, CharClass.CHANDRABINDU),  # adak bindi
        ("\u0a72", ScriptId.GURMUKHI, CharClass.INDEPENDENT_VOWEL),  # iri
        ("\u0a73", ScriptId.GURMUKHI, CharClass.INDEPENDENT_VOWEL),  # ura
        ("\u0b55", ScriptId.ORIYA, CharClass.DEPENDENT_VOWEL),  # overline
        ("\u0cf1", ScriptId.KANNADA, CharClass.CONSONANT),  # jihvamuliya
        ("\u0cf2", ScriptId.KANNADA, CharClass.CONSONANT),  # upadhmaniya
        ("\u0980", ScriptId.BENGALI, CharClass.OTHER_SIGN),  # anji
        ("\u09ce", ScriptId.BENGALI, CharClass.CONSONANT),  # khanda ta
        ("\u09fc", ScriptId.BENGALI, CharClass.ANUSVARA),  # vedic anusvara
        ("\u09fe", ScriptId.BENGALI, CharClass.OTHER_SIGN),  # sandhi mark
        ("\u0afd", ScriptId.GUJARATI, CharClass.NUKTA),  # three-dot nukta above
        ("\u0afa", ScriptId.GUJARATI, CharClass.OTHER_SIGN),  # sukun
        ("\u0c04", ScriptId.TELUGU, CharClass.ANUSVARA),  # combining anusvara above
        ("\u0d3a", ScriptId.MALAYALAM, CharClass.CONSONANT),  # ttta
        ("\u0d3c", ScriptId.MALAYALAM, CharClass.HALANTA),  # circular virama
        ("\u0975", ScriptId.DEVANAGARI, CharClass.INDEPENDENT_VOWEL),  # aw
        ("\u0a8d", ScriptId.GUJARATI, CharClass.INDEPENDENT_VOWEL),  # candra e
        ("a", ScriptId.LATIN, CharClass.INDEPENDENT_VOWEL),
        ("k", ScriptId.LATIN, CharClass.CONSONANT),
        ("y", ScriptId.LATIN, CharClass.CONSONANT),
        ("é", ScriptId.LATIN, CharClass.INDEPENDENT_VOWEL),
        ("я", ScriptId.CYRILLIC, CharClass.INDEPENDENT_VOWEL),
        ("й", ScriptId.CYRILLIC, CharClass.CONSONANT),
        ("ж", ScriptId.CYRILLIC, CharClass.CONSONANT),
        ("क", ScriptId.BENGALI, CharClass.NON_SCRIPT),  # outside block
        ("‍", ScriptId.DEVANAGARI, CharClass.OTHER_SIGN),  # ZWJ
        ("‌", ScriptId.TAMIL, CharClass.OTHER_SIGN),  # ZWNJ
    ],
)
def test_classify_cases(ch, script, want):
    assert classify(ch, script) is want


def test_classify_unsupported_script():
    with pytest.raises(UnsupportedScriptError):
        classify("x", ScriptId.UNSUPPORTED)


def test_classify_total_over_blocks():
    # every code point of every block classifies into exactly one class
    for script in INDIC:
        table = TABLES[script]
        for cp in range(table.block_start, table.block_end + 1):
            assert isinstance(table.classify(chr(cp)), CharClass)


@given(st.characters(), st.sampled_from(list(SUPPORTED_SCRIPTS)))
def test_classify_never_fails(ch, script):
    assert isinstance(classify(ch, script), CharClass)


def test_block_disjointness():
    # no code point is a letter in two different supported scripts
    for script_a in SUPPORTED_SCRIPTS:
        ta = TABLES[script_a]
        for script_b in SUPPORTED_SCRIPTS:
            if script_b is script_a:
                continue
            tb = TABLES[script_b]
            lo = max(ta.block_start, tb.block_start)
            hi = min(ta.block_end, tb.block_end)
            for cp in range(lo, hi + 1):
                both = (
                    ta.classify(chr(cp)) in LETTER_CLASSES
                    and tb.classify(chr(cp)) in LETTER_CLASSES
                )
                assert not both, f"U+{cp:04X} is a letter in two scripts"


def test_offset_parallelism_devanagari_vs_bengali():
    # shared layout: offsets classified in both tables agree, save where
    # the Bengali names differ from the Devanagari ones
    dev, ben = TABLES[ScriptId.DEVANAGARI], TABLES[ScriptId.BENGALI]
    # anji, khanda ta, ra variants, currency marks, vedic anusvara, signs
    exceptions = {0x00, 0x4E} | set(range(0x70, 0x7F))
    for off in range(0x80):
        if off in exceptions:
            continue
        a = dev.classify(chr(dev.block_start + off))
        b = ben.classify(chr(ben.block_start + off))
        if CharClass.NON_SCRIPT not in (a, b):
            assert a is b, f"offset 0x{off:02X}: {a} vs {b}"


_NAME_KEYWORDS = [
    ("CANDRABINDU", CharClass.CHANDRABINDU),
    ("ANUSVARA", CharClass.ANUSVARA),
    ("VISARGA", CharClass.VISARGA),
    ("NUKTA", CharClass.NUKTA),
    ("VIRAMA", CharClass.HALANTA),
    ("VOWEL SIGN", CharClass.DEPENDENT_VOWEL),
    ("LENGTH MARK", CharClass.DEPENDENT_VOWEL),
]

# Characters whose Unicode name keyword does not reflect how the
# syllabifier must treat them.
_NAME_ALLOWLIST = {
    0x0B83,  # tamil aytham: named VISARGA, spacing letter; treated as visarga
    0x09FC,  # bengali vedic anusvara: a spacing letter spelling the sign
    0x0D04,  # malayalam vedic anusvara
}


def test_tables_match_unicode_names():
    """The tables agree with the UCD naming conventions, as read here apart
    from the name rule that builds them."""
    for script in INDIC:
        table = TABLES[script]
        for cp, cls in _block_classes(table):
            if cp in _NAME_ALLOWLIST:
                continue
            name = unicodedata.name(chr(cp))
            for keyword, want in _NAME_KEYWORDS:
                if keyword in name:
                    assert cls is want, f"U+{cp:04X} {name}: {cls} != {want}"
                    break
            else:
                if " LETTER " in name or name.endswith("LETTER A"):
                    assert cls in (
                        CharClass.CONSONANT,
                        CharClass.INDEPENDENT_VOWEL,
                        CharClass.ANUSVARA,  # combining anusvara letters
                    ), f"U+{cp:04X} {name}: {cls}"
                if "DIGIT" in name:
                    assert cls is CharClass.OTHER_SIGN, f"U+{cp:04X} {name}"


def test_hand_kept_code_points_are_not_named_for_their_class():
    # the hand-kept map holds nothing that the Unicode names already say
    assert len(_BY_HAND) <= 8
    for cp, letter in _BY_HAND.items():
        name = unicodedata.name(chr(cp))
        assert _name_class(chr(cp)) != letter, f"U+{cp:04X} {name}"


def test_dependent_vowels_are_combining_or_spacing_marks():
    for script in INDIC:
        table = TABLES[script]
        for cp, cls in _block_classes(table):
            if cls is CharClass.DEPENDENT_VOWEL:
                cat = unicodedata.category(chr(cp))
                assert cat in ("Mn", "Mc"), f"U+{cp:04X}: {cat}"


def test_plosives_are_consonants():
    for script in INDIC:
        table = TABLES[script]
        for cp, letter in table.letters.items():
            if letter == "P":
                assert table.block_start <= cp <= table.block_end, f"U+{cp:04X}"
                assert table.classify(chr(cp)) is CharClass.CONSONANT


def test_plosive_rows_devanagari():
    table = TABLES[ScriptId.DEVANAGARI]
    for ch in "कखगघ चछजझ टठडढ तथदध पफबभ".replace(" ", ""):
        assert table.is_plosive(ch), ch
    for ch in "ङञणनम यरलवशषसह":  # nasals and non-stops
        if ch == " ":
            continue
        assert not table.is_plosive(ch), ch


def test_alpha_tables_follow_casefold_vowel_rule():
    for script, ranges in (
        (ScriptId.LATIN, _LATIN_RANGES),
        (ScriptId.CYRILLIC, _CYRILLIC_RANGES),
    ):
        table = TABLES[script]
        assert table.vowel_set
        for lo, hi in ranges:
            for cp in range(lo, hi + 1):
                ch = chr(cp)
                if not unicodedata.category(ch).startswith("L"):
                    continue  # only the letters of the ranges are classified
                # a vowel iff the case fold starts with a listed vowel or
                # with an accented one (NFD base listed), short i/u aside
                first = ch.casefold()[0]
                base = unicodedata.normalize("NFD", first)[0]
                vowel = first in table.vowel_set or (
                    first not in "йў" and base in table.vowel_set
                )
                want = CharClass.INDEPENDENT_VOWEL if vowel else CharClass.CONSONANT
                assert table.classify(ch) is want, f"U+{cp:04X} {script}"
        # signs inside the ranges: Latin-1's multiplication and division
        # signs, Cyrillic's thousands sign and combining marks
        for ch in "×÷" + "".join(map(chr, range(0x482, 0x48A))):
            assert table.classify(ch) is CharClass.NON_SCRIPT, f"U+{ord(ch):04X} {script}"
    # the accented vowels that the base-letter clause adds, and the letters
    # that stay as they were: short i and u, and vowels with no decomposition
    accented = {
        ScriptId.LATIN: "ƠơƯưǍǎǏǐǑǒǓǔǕǖǗǘǙǚǛǜǞǟǠǡǢǣǪǫǬǭǺǻǼǽǾǿ"
                        "ȀȁȂȃȄȅȆȇȈȉȊȋȌȍȎȏȔȕȖȗȦȧȨȩȪȫȬȭȮȯȰȱ",
        ScriptId.CYRILLIC: "ЀЍѐѝѶѷӐӑӒӓӖӗӢӣӤӥӦӧӬӭӮӯӰӱӲӳӸӹ",
    }
    assert (len(accented[ScriptId.LATIN]), len(accented[ScriptId.CYRILLIC])) == (68, 28)
    for script, letters in accented.items():
        for ch in letters:
            assert classify(ch, script) is CharClass.INDEPENDENT_VOWEL, f"U+{ord(ch):04X}"
    for ch in "ЙйЎў":
        assert classify(ch, ScriptId.CYRILLIC) is CharClass.CONSONANT, f"U+{ord(ch):04X}"
    for ch in "ØøıÆæŒœ":
        assert classify(ch, ScriptId.LATIN) is CharClass.INDEPENDENT_VOWEL, f"U+{ord(ch):04X}"


@pytest.mark.parametrize(
    "word,want",
    [
        ("घरासमोरचा", ScriptId.DEVANAGARI),
        ("mumbai", ScriptId.LATIN),
        ("привет", ScriptId.CYRILLIC),
        ("தமிழ்", ScriptId.TAMIL),
        ("తెలుగు", ScriptId.TELUGU),
        ("মুম্বই", ScriptId.BENGALI),
        ("42", ScriptId.UNSUPPORTED),
        (",", ScriptId.UNSUPPORTED),
        ("...", ScriptId.UNSUPPORTED),
    ],
)
def test_detect_script(word, want):
    assert detect_script(word) is want


def test_detect_script_exhaustive():
    # a lone code point is detected as the one script whose table has it
    # as a letter, or as Unsupported when no table does
    chars = [chr(cp) for cp in range(0x110000)]
    letter_classes = tuple(LETTER_CLASSES)  # skips Enum's Python-level __hash__
    owner = {}
    for script in SUPPORTED_SCRIPTS:
        classes = map(TABLES[script].classify, chars)
        letters = [ch for ch, cls in zip(chars, classes) if cls in letter_classes]
        assert not owner.keys() & set(letters), f"{script} shares letters"
        owner.update(dict.fromkeys(letters, script))
    wrong = [
        f"U+{ord(ch):04X}"
        for ch in chars
        if detect_script(ch) is not owner.get(ch, ScriptId.UNSUPPORTED)
    ]
    assert not wrong, wrong[:10]


def test_detect_script_mixed():
    with pytest.raises(MixedScriptError):
        detect_script("घरmix")
    with pytest.raises(MixedScriptError):
        detect_script("मराठीਪੰਜਾਬੀ")


def test_detect_script_marks_do_not_decide():
    # Devanagari danda attached to a Bengali word neither decides nor mixes
    assert detect_script("শব্দ।") is ScriptId.BENGALI
    # nor does a Cyrillic combining titlo on a Devanagari letter
    assert detect_script("क\u0483") is ScriptId.DEVANAGARI


@pytest.mark.parametrize(
    "c1,c2,want",
    [
        ("ं", "स", True),   # fricative follows: nasalizes the left unit
        ("ं", "ग", False),  # plosive follows: nasal consonant
        ("क", "ा", False),  # not an anusvara/chandrabindu
        ("ँ", "ह", True),
        ("ं", None, True),  # word-final anusvara nasalizes
    ],
)
def test_is_nasalizer(c1, c2, want):
    assert is_nasalizer(c1, c2, ScriptId.DEVANAGARI) is want


@given(
    st.characters(),
    st.one_of(st.none(), st.characters()),
    st.sampled_from(INDIC),
)
def test_is_nasalizer_soundness(c1, c2, script):
    # false whenever c1 is not an anusvara/chandrabindu, for any c2
    if classify(c1, script) not in (CharClass.ANUSVARA, CharClass.CHANDRABINDU):
        assert is_nasalizer(c1, c2, script) is False


def test_is_nasalizer_rejects_alphabetic():
    with pytest.raises(UnsupportedScriptError):
        is_nasalizer("a", "b", ScriptId.LATIN)
