"""Unit schemes, boundary-marker tokenization and exact detokenization."""

import io
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from orthosyl.errors import (
    CorpusDecodeError,
    LexiconFormatError,
    MalformedStreamError,
    MarkerCollisionError,
    MixedScriptError,
    ParameterError,
    UnsupportedScriptError,
    raise_at_line,
)
from orthosyl.scripts import ScriptId
from orthosyl.segment import (
    MARKER_SUBSTITUTE,
    MorphLexicon,
    UnitScheme,
    check_marker,
    detokenize,
    segment_corpus,
    segment_word,
    tokenize_sentence,
)
from orthosyl.syllabify import syllabify

MARATHI_WORD = "घरासमोरचा"


class TestUnitScheme:
    def test_parse(self):
        assert UnitScheme.parse("word") == UnitScheme.word()
        assert UnitScheme.parse("morph") == UnitScheme.morph()
        assert UnitScheme.parse("char") == UnitScheme.char_unigram()
        assert UnitScheme.parse("char-ngram=3") == UnitScheme.char_ngram(3)
        assert UnitScheme.parse("os") == UnitScheme.ortho_syllable()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterError):
            UnitScheme.parse("bpe")
        with pytest.raises(ParameterError):
            UnitScheme.parse("char-ngram=x")

    def test_parse_rejects_digits_int_cannot_read(self):
        # "²".isdigit() holds but int("²") raises ValueError
        with pytest.raises(ParameterError):
            UnitScheme.parse("char-ngram=²")

    def test_ngram_needs_n_at_least_2(self):
        with pytest.raises(ParameterError):
            UnitScheme.char_ngram(1)
        with pytest.raises(ParameterError, match="takes no n parameter"):
            UnitScheme("word", 3)

    def test_str(self):
        assert str(UnitScheme.char_ngram(3)) == "char-ngram=3"
        assert str(UnitScheme.ortho_syllable()) == "os"


class TestSegmentWord:
    def test_word_scheme_is_identity(self):
        assert segment_word(MARATHI_WORD, UnitScheme.word()) == [MARATHI_WORD]

    def test_char_unigram(self):
        units = segment_word(MARATHI_WORD, UnitScheme.char_unigram())
        assert units == ["घ", "र", "ा", "स", "म", "ो", "र", "च", "ा"]

    def test_char_trigram(self):
        units = segment_word(MARATHI_WORD, UnitScheme.char_ngram(3))
        assert units == ["घरा", "समो", "रचा"]

    def test_char_trigram_ragged_tail(self):
        assert segment_word("abcde", UnitScheme.char_ngram(3)) == ["abc", "de"]

    def test_os(self):
        units = segment_word(MARATHI_WORD, UnitScheme.ortho_syllable())
        assert units == ["घ", "रा", "स", "मो", "र", "चा"]

    def test_morph_with_lexicon(self):
        lex = MorphLexicon({MARATHI_WORD: ["घरा", "समोर", "चा"]})
        assert segment_word(MARATHI_WORD, UnitScheme.morph(), lex) == [
            "घरा", "समोर", "चा",
        ]

    def test_morph_unknown_word_passes_through(self):
        lex = MorphLexicon()
        assert segment_word("नवीन", UnitScheme.morph(), lex) == ["नवीन"]

    def test_morph_without_lexicon_errors(self):
        with pytest.raises(ParameterError):
            segment_word("x", UnitScheme.morph())

    @pytest.mark.parametrize(
        "scheme",
        [
            UnitScheme.word(),
            UnitScheme.char_unigram(),
            UnitScheme.char_ngram(2),
            UnitScheme.char_ngram(3),
            UnitScheme.ortho_syllable(),
        ],
    )
    def test_concatenation_restores_word(self, scheme):
        for word in (MARATHI_WORD, "mumbai", "x", "प्रत्येक"):
            assert "".join(segment_word(word, scheme)) == word
        # a composition-excluded letter: OS units concatenate to the NFC form
        word = "\u0958\u093e"
        want = "\u0915\u093c\u093e" if scheme.kind == "os" else word
        assert unicodedata.normalize("NFC", word) == "\u0915\u093c\u093e"
        assert "".join(segment_word(word, scheme)) == want


def _block(lo, hi):
    return st.characters(
        min_codepoint=lo, max_codepoint=hi, blacklist_categories=("Cc", "Cs", "Zs")
    )


# Indic blocks (Devanagari through Malayalam), Latin, Cyrillic, joiners and
# punctuation, mixed freely: some words are mixed-script on purpose.
os_words_st = st.text(
    alphabet=st.one_of(
        _block(0x900, 0xD7F),
        _block(0x41, 0x24F),
        _block(0x400, 0x4FF),
        st.sampled_from("\u200c\u200d,.!?-'"),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=300)
@given(os_words_st, st.sampled_from([None, ScriptId.DEVANAGARI, ScriptId.LATIN]))
def test_os_segment_word_matches_syllabify(word, script):
    scheme = UnitScheme.ortho_syllable()
    try:
        want = [u.text for u in syllabify(word, script)]
    except MixedScriptError:
        for _ in range(2):
            with pytest.raises(MixedScriptError):
                segment_word(word, scheme, script=script)
        return
    first = segment_word(word, scheme, script=script)
    assert first == want
    first.append("mutated")  # the cached units must not see this
    assert segment_word(word, scheme, script=script) == want  # a cache hit


def test_os_mixed_script_error_is_not_cached():
    for _ in range(3):
        with pytest.raises(MixedScriptError):
            segment_word("Facebookपर", UnitScheme.ortho_syllable())


class TestMorphLexicon:
    def test_rejects_inconsistent_entry(self):
        with pytest.raises(LexiconFormatError):
            MorphLexicon({"abc": ["a", "c"]})

    def test_load(self, tmp_path):
        path = tmp_path / "morphs.tsv"
        path.write_text(
            f"{MARATHI_WORD}\tघरा समोर चा\nघराबाहेर\tघरा बाहेर\n", encoding="utf-8"
        )
        lex = MorphLexicon.load(str(path))
        assert len(lex) == 2
        assert lex.get("घराबाहेर") == ("घरा", "बाहेर")

    def test_load_rejects_bad_line(self, tmp_path):
        path = tmp_path / "morphs.tsv"
        path.write_text("no-tab-here\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError, match="line 1"):
            MorphLexicon.load(str(path))

    def test_load_invalid_utf8_names_byte_offset(self, tmp_path):
        path = tmp_path / "morphs.tsv"
        path.write_bytes(b"ab\xff\tab\n")
        with pytest.raises(CorpusDecodeError, match="byte offset 2") as info:
            MorphLexicon.load(str(path))
        assert info.value.byte_offset == 2

    def test_load_only_lf_ends_a_line(self, tmp_path):
        # a lone CR stays inside its line, as in load_corpus
        path = tmp_path / "morphs.tsv"
        path.write_bytes(b"xy\tx\ry\nzw\tz w\n")
        lex = MorphLexicon.load(str(path))
        assert lex.get("xy") == ("x", "y")
        assert lex.get("zw") == ("z", "w")

    def test_load_crlf_bom_and_line_numbers(self, tmp_path):
        path = tmp_path / "morphs.tsv"
        path.write_bytes(b"\xef\xbb\xbfab\ta b\r\n\r\nbad\r\n")
        with pytest.raises(LexiconFormatError, match="line 3: .*'bad'$"):
            MorphLexicon.load(str(path))
        path.write_bytes(b"\xef\xbb\xbfab\ta b\r\n")
        assert MorphLexicon.load(str(path)).get("ab") == ("a", "b")

    def test_load_missing_tab_error_carries_lineno(self, tmp_path):
        path = tmp_path / "morphs.tsv"
        path.write_text("ab\ta b\n\nabc\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError) as info:
            MorphLexicon.load(str(path))
        assert info.value.lineno == 3
        assert str(info.value) == f"{path}: line 3: expected 'word TAB segments', got 'abc'"


class TestTokenize:
    def test_marathi_sentence(self):
        ts = tokenize_sentence("राजू , घराबाहेर जाऊ नको .", UnitScheme.ortho_syllable())
        assert str(ts) == "रा जू _ , _ घ रा बा हे र _ जा ऊ _ न को _ ."

    def test_word_scheme_identity(self):
        ts = tokenize_sentence("राजू नको", UnitScheme.word())
        assert str(ts) == "राजू नको"

    def test_char_scheme(self):
        ts = tokenize_sentence("ab cd", UnitScheme.char_unigram())
        assert str(ts) == "a b _ c d"

    def test_empty_sentence(self):
        ts = tokenize_sentence("", UnitScheme.ortho_syllable())
        assert ts.tokens == ()
        assert detokenize(ts) == ""

    def test_marker_collision_errors(self):
        with pytest.raises(MarkerCollisionError):
            tokenize_sentence("under_score", UnitScheme.char_unigram())

    def test_marker_collision_replace(self):
        ts = tokenize_sentence(
            "under_score ok",
            UnitScheme.word(),
            on_marker_collision="replace",
        )
        assert ts.tokens == (f"under{MARKER_SUBSTITUTE}score", "ok")

    def test_custom_marker(self):
        ts = tokenize_sentence("ab cd", UnitScheme.char_unigram(), marker="|")
        assert str(ts) == "a b | c d"
        assert detokenize(ts) == "ab cd"

    def test_marker_must_be_single_codepoint(self):
        with pytest.raises(ParameterError):
            tokenize_sentence("ab", UnitScheme.char_unigram(), marker="__")

    @pytest.mark.parametrize("marker,on_marker_collision", [
        ("", "error"),
        ("__", "error"),
        (" ", "error"),
        ("\t", "error"),
        ("\x1c", "error"),  # str.split() splits here too
        ("\x85", "error"),
        ("\u3000", "error"),
        ("\u2126", "error"),  # OHM SIGN: NFC makes it U+03A9
        (MARKER_SUBSTITUTE, "replace"),
        ("_", "bogus"),  # a legal marker, an unknown collision mode
    ])
    def test_illegal_marker_is_rejected(self, marker, on_marker_collision):
        with pytest.raises(ParameterError):
            check_marker(marker, on_marker_collision)
        with pytest.raises(ParameterError):
            tokenize_sentence("ab cd", UnitScheme.char_unigram(), marker=marker,
                              on_marker_collision=on_marker_collision)

    @pytest.mark.parametrize("marker", ["_", "|", "\u03a9", MARKER_SUBSTITUTE, "\u200c"])
    def test_legal_marker_is_returned(self, marker):
        assert check_marker(marker) == marker

    def test_no_marker_adjacency(self):
        ts = tokenize_sentence(
            "एक दो तीन , चार .", UnitScheme.ortho_syllable()
        )
        toks = ts.tokens
        assert toks[0] != "_" and toks[-1] != "_"
        assert all(
            not (toks[i] == "_" and toks[i + 1] == "_") for i in range(len(toks) - 1)
        )


class TestDetokenize:
    def test_inverse_of_marathi_line(self):
        line = "रा जू _ , _ घ रा बा हे र _ जा ऊ _ न को _ ."
        assert detokenize(line.split(), "_") == "राजू , घराबाहेर जाऊ नको ."

    def test_empty(self):
        assert detokenize([], "_") == ""

    def test_derived_example(self):
        assert detokenize("a b _ c d".split(), "_") == "ab cd"

    def test_consecutive_markers_rejected(self):
        with pytest.raises(MalformedStreamError):
            detokenize(["a", "_", "_", "b"], "_")

    def test_leading_trailing_markers_rejected(self):
        with pytest.raises(MalformedStreamError):
            detokenize(["_", "a"], "_")
        with pytest.raises(MalformedStreamError):
            detokenize(["a", "_"], "_")


ALL_SCHEMES = [
    UnitScheme.word(),
    UnitScheme.morph(),
    UnitScheme.char_unigram(),
    UnitScheme.char_ngram(3),
    UnitScheme.ortho_syllable(),
]

words_st = st.one_of(
    st.text(alphabet="कखगताीुूं्", min_size=1, max_size=8),
    st.text(alphabet=st.sampled_from("abcdefgo"), min_size=1, max_size=8),
    st.text(alphabet=st.sampled_from("бвгдаое"), min_size=1, max_size=8),
    st.sampled_from([",", ".", "42", "?!"]),
)
sentences_st = st.lists(words_st, min_size=0, max_size=8).map(" ".join)


@settings(max_examples=150)
@given(sentences_st, st.sampled_from(ALL_SCHEMES))
def test_round_trip_property(sentence, scheme):
    import unicodedata

    sentence = unicodedata.normalize("NFC", sentence)
    morphs = MorphLexicon() if scheme.kind == "morph" else None
    ts = tokenize_sentence(sentence, scheme, morphs=morphs)
    assert detokenize(ts) == sentence
    # raw-stream semantics agree for sub-word schemes
    if scheme.is_subword:
        assert detokenize(list(ts.tokens), ts.marker) == sentence


@settings(max_examples=100)
@given(st.text(alphabet="कखग ाीं्ab", max_size=30))
def test_unit_count_laws(sentence):
    words = sentence.split()
    uni = tokenize_sentence(sentence, UnitScheme.char_unigram())
    non_marker = [t for t in uni.tokens if t != "_"]
    assert len(non_marker) == sum(len(w) for w in words)
    tri = tokenize_sentence(sentence, UnitScheme.char_ngram(3))
    non_marker = [t for t in tri.tokens if t != "_"]
    assert len(non_marker) == sum((len(w) + 2) // 3 for w in words)


class TestSegmentCorpus:
    def test_line_count_preserved(self):
        lines = ["एक दो", "तीन चार", ""]
        out = list(segment_corpus(lines, UnitScheme.ortho_syllable()))
        assert len(out) == 3

    def test_error_names_line(self):
        lines = ["ok line", "bad_line here"]
        with pytest.raises(MarkerCollisionError, match="line 2"):
            list(segment_corpus(lines, UnitScheme.char_unigram()))

    def test_error_keeps_type_and_gains_lineno(self):
        lines = ["ok line", "bad_line here"]
        with pytest.raises(MarkerCollisionError) as info:
            list(segment_corpus(lines, UnitScheme.char_unigram()))
        assert info.value.lineno == 2
        assert str(info.value) == (
            "line 2: word 'bad_line' contains the boundary marker '_'"
        )

    def test_skip_errors_passes_line_through(self):
        lines = ["ok", "bad_line"]
        sink = io.StringIO()
        out = list(
            segment_corpus(
                lines,
                UnitScheme.char_unigram(),
                skip_errors=True,
                error_sink=sink,
            )
        )
        assert out == ["o k", "bad_line"]
        assert "line 2" in sink.getvalue()

    def test_skip_errors_does_not_hide_programming_errors(self):
        # only OrthosylError marks a bad line; anything else is a bug
        sink = io.StringIO()
        with pytest.raises(AttributeError):
            list(
                segment_corpus(
                    ["ok", None, "x y"],
                    UnitScheme.char_unigram(),
                    skip_errors=True,
                    error_sink=sink,
                )
            )
        assert sink.getvalue() == ""

    def test_empty_corpus(self):
        assert list(segment_corpus([], UnitScheme.word())) == []

    @pytest.mark.parametrize("kwargs,error", [
        ({"marker": "__"}, ParameterError),
        ({"on_marker_collision": "bogus"}, ParameterError),
        ({"script": ScriptId.UNSUPPORTED}, UnsupportedScriptError),
        ({"scheme": UnitScheme.morph()}, ParameterError),
    ], ids=["marker", "collision mode", "script", "lexicon"])
    def test_bad_parameter_raises_before_the_first_line(self, kwargs, error):
        # a misconfigured run is an error, never a run of skipped lines
        sink = io.StringIO()
        kwargs = {"scheme": UnitScheme.ortho_syllable(), **kwargs}
        out = segment_corpus(["ab", "cd"], skip_errors=True, error_sink=sink, **kwargs)
        with pytest.raises(error) as info:
            next(out)
        assert not hasattr(info.value, "lineno")
        assert "line" not in str(info.value)
        assert sink.getvalue() == ""


def test_raise_at_line_reraises_the_same_exception():
    exc = CorpusDecodeError("invalid UTF-8 at byte offset 4: invalid start byte", 4)
    with pytest.raises(CorpusDecodeError) as info:
        try:
            raise exc
        except CorpusDecodeError as caught:
            raise_at_line(caught, 7)
    assert info.value is exc
    assert info.value.lineno == 7
    assert info.value.byte_offset == 4
    assert str(info.value) == "line 7: invalid UTF-8 at byte offset 4: invalid start byte"


# Text as load_corpus delivers a line: NFC, no LF. The marker is left out
# because a word holding it is an error, not a round-trip case.
corpus_lines_st = st.text(
    alphabet=st.one_of(
        st.sampled_from(" \t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\n_"),
    )
).map(lambda s: unicodedata.normalize("NFC", s))


@settings(max_examples=300)
@given(
    corpus_lines_st,
    st.sampled_from(
        [
            UnitScheme.char_unigram(),
            UnitScheme.char_ngram(3),
            UnitScheme.word(),
            UnitScheme.ortho_syllable(),
        ]
    ),
)
def test_round_trip_maps_whitespace_runs_to_one_space(line, scheme):
    try:
        ts = tokenize_sentence(line, scheme)
    except MixedScriptError:
        # a word mixing two supported scripts has no OS segmentation yet
        assert scheme.kind == "os"
        return
    assert detokenize(ts) == " ".join(line.split())


def tokenize_oracle(sentence, scheme, marker, on_marker_collision):
    """tokenize_sentence's tokens by the reference rule: every word is
    tested for the marker in turn, and the first that holds it fails."""
    cleaned = []
    for word in sentence.split():
        if marker in word:
            if on_marker_collision == "error":
                raise MarkerCollisionError(
                    f"word {word!r} contains the boundary marker {marker!r}"
                )
            word = word.replace(marker, MARKER_SUBSTITUTE)
        cleaned.append(word)
    if not scheme.is_subword:
        return tuple(cleaned)
    tokens = []
    for idx, word in enumerate(cleaned):
        if idx:
            tokens.append(marker)
        tokens.extend(segment_word(word, scheme))
    return tuple(tokens)


def tokenized(sentence, scheme, marker, on_marker_collision):
    return tokenize_sentence(sentence, scheme, marker=marker,
                             on_marker_collision=on_marker_collision).tokens


def tokens_or_error(fn, *args):
    try:
        return fn(*args)
    except MarkerCollisionError as exc:
        return type(exc), str(exc)


@st.composite
def sentences_with_markers(draw):
    """A marker and a sentence over a small vocabulary in which 0-2 words
    hold the marker, with assorted whitespace between the words."""
    marker = draw(st.sampled_from(["_", "\u03a9"]))
    words = draw(st.lists(
        st.sampled_from(["ab", "घर", "मुम्बई", "привет", ",", "42", "a\u03a9b"]),
        min_size=0, max_size=6,
    ))
    for _ in range(draw(st.integers(0, 2)) if words else 0):
        idx = draw(st.integers(0, len(words) - 1))
        cut = draw(st.integers(0, len(words[idx])))
        words[idx] = words[idx][:cut] + marker + words[idx][cut:]
    seps = draw(st.lists(st.sampled_from([" ", "  ", "\t", "\u3000"]),
                         min_size=len(words) + 1, max_size=len(words) + 1))
    sentence = seps[0] + "".join(w + sep for w, sep in zip(words, seps[1:]))
    return marker, sentence


@settings(max_examples=300)
@given(
    sentences_with_markers(),
    st.sampled_from(["error", "replace"]),
    st.sampled_from([UnitScheme.word(), UnitScheme.char_unigram(), UnitScheme.ortho_syllable()]),
)
def test_marker_handling_equals_oracle(marker_sentence, on_marker_collision, scheme):
    args = marker_sentence[1], scheme, marker_sentence[0], on_marker_collision
    assert tokens_or_error(tokenized, *args) == tokens_or_error(tokenize_oracle, *args)
