"""Corpus loading/writing, splitting, and unit-vocabulary statistics."""

import io
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from orthosyl.corpus import (
    VocabStats,
    load_corpus,
    split_corpus,
    unit_ratio,
    vocab_stats,
    write_corpus,
)
from orthosyl.errors import (
    CorpusDecodeError,
    DegenerateCorpusError,
    MixedScriptError,
    OrthosylError,
    ParameterError,
    SplitSizeError,
    UnsupportedScriptError,
    map_lines,
)
from orthosyl.scripts import ScriptId, get_table
from orthosyl.segment import MorphLexicon, UnitScheme, segment_word


class TestLoad:
    def test_basic(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("एक\nदो\nतीन\n", encoding="utf-8")
        assert load_corpus(path) == ["एक", "दो", "तीन"]

    def test_bom_stripped(self, tmp_path):
        plain = tmp_path / "plain.txt"
        bom = tmp_path / "bom.txt"
        plain.write_bytes("एक\n".encode("utf-8"))
        bom.write_bytes(b"\xef\xbb\xbf" + "एक\n".encode("utf-8"))
        assert load_corpus(plain) == load_corpus(bom)

    def test_crlf_tolerated(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"one\r\ntwo\r\n")
        assert load_corpus(path) == ["one", "two"]

    def test_nfc_normalization(self, tmp_path):
        # decomposed qa (ka + nukta) and composed qa load identically
        path = tmp_path / "nfc.txt"
        path.write_text("क़\n", encoding="utf-8")
        assert load_corpus(path) == ["क़"]

    def test_invalid_utf8_names_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok\n\xff\xfe broken")
        with pytest.raises(CorpusDecodeError) as exc_info:
            load_corpus(path)
        assert exc_info.value.byte_offset == 3
        assert "byte offset 3" in str(exc_info.value)

    def test_invalid_utf8_names_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok\n\xff")
        with pytest.raises(CorpusDecodeError) as exc_info:
            load_corpus(str(path))
        assert str(exc_info.value) == (
            f"{path}: invalid UTF-8 at byte offset 3: invalid start byte"
        )
        assert exc_info.value.byte_offset == 3

    def test_invalid_utf8_stream_has_no_path(self):
        with pytest.raises(CorpusDecodeError) as exc_info:
            load_corpus(io.BytesIO(b"\xff"))
        assert str(exc_info.value) == "invalid UTF-8 at byte offset 0: invalid start byte"

    def test_stream_input(self):
        assert load_corpus(io.StringIO("a\nb\n")) == ["a", "b"]

    def test_lone_surrogate_in_text_stream_names_offset(self):
        with pytest.raises(CorpusDecodeError) as exc_info:
            load_corpus(io.StringIO("a\ud800b\n"))
        assert exc_info.value.byte_offset == 1

    def test_surrogateescape_stream_offset_matches_binary(self):
        # an invalid byte read through surrogateescape fails at the same
        # offset as the byte itself in a binary stream
        data = b"ok\n\xffz\n"
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        offsets = []
        for stream in (text, io.BytesIO(data)):
            with pytest.raises(CorpusDecodeError) as exc_info:
                load_corpus(stream)
            offsets.append(exc_info.value.byte_offset)
        assert offsets == [3, 3]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        assert load_corpus(path) == []

    def test_only_lf_ends_a_line(self):
        text = "ab\x85cd\nx\u2028y\rz\x0b\x0c\x1c\u2029\r\nlast"
        assert load_corpus(io.StringIO(text)) == [
            "ab\x85cd",
            "x\u2028y\rz\x0b\x0c\x1c\u2029",
            "last",
        ]

    @given(st.lists(st.text(st.one_of(
        st.sampled_from("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff"),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    ))))
    def test_line_count_preserved(self, lines):
        data = "".join(line + "\n" for line in lines)
        assert len(load_corpus(io.StringIO(data))) == len(lines)


class TestWrite:
    def test_load_write_round_trip(self, tmp_path):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        payload = "एक वाक्य\nanother line\n"
        src.write_text(payload, encoding="utf-8")
        write_corpus(load_corpus(src), dst)
        assert dst.read_bytes() == src.read_bytes()
        stream = io.StringIO()
        write_corpus(load_corpus(src), stream)
        assert stream.getvalue() == payload

    def test_empty_corpus_writes_empty_file(self, tmp_path):
        dst = tmp_path / "out.txt"
        write_corpus([], dst)
        assert dst.read_bytes() == b""


class TestSplit:
    LINES = [f"line {i}" for i in range(10)]

    def test_contiguous_split(self):
        train, tune, test = split_corpus(self.LINES, (7, 2, 1))
        assert train == self.LINES[:7]
        assert tune == self.LINES[7:9]
        assert test == self.LINES[9:]

    def test_zero_sizes(self):
        assert split_corpus(self.LINES, (0, 0, 0)) == ([], [], [])

    def test_pieces_disjoint_and_complete(self):
        train, tune, test = split_corpus(self.LINES, (5, 3, 2))
        assert train + tune + test == self.LINES

    def test_seeded_shuffle_is_reproducible(self):
        first = split_corpus(self.LINES, (6, 2, 2), seed=42)
        second = split_corpus(self.LINES, (6, 2, 2), seed=42)
        assert first == second
        assert first != split_corpus(self.LINES, (6, 2, 2))  # shuffled order

    def test_shuffled_pieces_partition_corpus(self):
        train, tune, test = split_corpus(self.LINES, (5, 3, 2), seed=1)
        assert sorted(train + tune + test) == sorted(self.LINES)

    def test_oversized_request(self):
        with pytest.raises(SplitSizeError):
            split_corpus(self.LINES, (9, 2, 1))

    def test_negative_size(self):
        with pytest.raises(SplitSizeError):
            split_corpus(self.LINES, (-1, 2, 1))


class Unread:
    """An iterable of lines that fails the test if a line is asked for."""

    def __iter__(self):
        return self

    def __next__(self):
        pytest.fail("a line was read before the parameters were checked")


class TestVocabStats:
    def test_word_scheme(self):
        stats = vocab_stats(["ab ab"], UnitScheme.word())
        assert stats.type_count == 1
        assert stats.token_count == 2
        assert stats.mean_unit_length == pytest.approx(2.0)

    def test_char_unigram_marathi(self):
        stats = vocab_stats(["घरासमोरचा"], UnitScheme.char_unigram())
        assert stats.token_count == 9

    def test_os_marathi(self):
        stats = vocab_stats(["घरासमोरचा"], UnitScheme.ortho_syllable())
        assert stats.token_count == 6
        assert stats.mean_unit_length == pytest.approx(1.5)

    def test_token_count_sums_over_words(self):
        from orthosyl.segment import segment_word

        lines = ["एक दो तीन", "चार पाँच"]
        scheme = UnitScheme.ortho_syllable()
        want = sum(
            len(segment_word(w, scheme)) for line in lines for w in line.split()
        )
        assert vocab_stats(lines, scheme).token_count == want

    def test_morph_scheme(self):
        lex = MorphLexicon({"घरासमोरचा": ["घरा", "समोर", "चा"]})
        stats = vocab_stats(["घरासमोरचा घरासमोरचा"], UnitScheme.morph(), morphs=lex)
        assert stats.type_count == 3
        assert stats.token_count == 6

    def test_empty_corpus(self):
        stats = vocab_stats([], UnitScheme.word())
        assert stats.type_count == 0
        assert stats.token_count == 0

    def test_format_line(self):
        line = vocab_stats(["ab"], UnitScheme.char_unigram()).format_line()
        assert line == "char\t2\t2\t1.0000"

    def test_error_names_its_line(self):
        with pytest.raises(MixedScriptError) as info:
            vocab_stats(["ok", "Facebookपर"], UnitScheme.ortho_syllable())
        assert info.value.lineno == 2
        assert str(info.value) == (
            "line 2: word 'Facebookपर' mixes Latin and Devanagari letters"
        )

    @pytest.mark.parametrize("scheme, script, error", [
        (UnitScheme.morph(), None, ParameterError),
        (UnitScheme.ortho_syllable(), ScriptId.UNSUPPORTED, UnsupportedScriptError),
        (UnitScheme.word(), ScriptId.UNSUPPORTED, UnsupportedScriptError),
    ])
    def test_parameters_checked_first(self, scheme, script, error):
        with pytest.raises(error) as info:
            vocab_stats(Unread(), scheme, None, script)
        assert getattr(info.value, "lineno", None) is None
        assert not str(info.value).startswith("line ")


def per_token_vocab_stats(lines, scheme, morphs=None, script=None):
    """Oracle: check the parameters before any line, then segment every word
    token in corpus order and count its units."""
    if script is not None:
        get_table(script)
    if scheme == UnitScheme.morph() and morphs is None:
        raise ParameterError("morph scheme requires a morph lexicon")

    def line_units(line):
        return [u for word in line.split() for u in segment_word(word, scheme, morphs, script)]

    counts = Counter(chain.from_iterable(map_lines(line_units, lines)))
    type_cp = sum(len(unit) for unit in counts)
    return VocabStats(
        scheme=scheme,
        type_count=len(counts),
        token_count=sum(counts.values()),
        mean_unit_length=(type_cp / len(counts)) if counts else 0.0,
    )


def outcome(fn, *args):
    """fn's result, or the type, message and line number of its OrthosylError."""
    try:
        return fn(*args)
    except OrthosylError as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)


# a small vocabulary, so words repeat within and across lines; the
# mixed-script word fails under --unit os unless a script is given
ORACLE_WORDS = ["एक", "घरासमोरचा", "क्षत्रिय", "ab", "Straße", "Facebookपर", "।"]
ORACLE_LEXICON = MorphLexicon({"घरासमोरचा": ["घरा", "समोर", "चा"], "ab": ["a", "b"]})


class TestVocabStatsOracle:
    @given(
        lines=st.lists(st.lists(st.sampled_from(ORACLE_WORDS), max_size=6).map(" ".join),
                       max_size=8),
        scheme=st.sampled_from([UnitScheme.word(), UnitScheme.morph(), UnitScheme.char_unigram(),
                                UnitScheme.char_ngram(2), UnitScheme.char_ngram(3),
                                UnitScheme.ortho_syllable()]),
        morphs=st.sampled_from([ORACLE_LEXICON, None]),
        script=st.sampled_from([None, ScriptId.DEVANAGARI, ScriptId.UNSUPPORTED]),
        one_shot=st.booleans(),
    )
    def test_matches_per_token_counting(self, lines, scheme, morphs, script, one_shot):
        source = (line for line in lines) if one_shot else lines
        assert outcome(vocab_stats, source, scheme, morphs, script) == outcome(
            per_token_vocab_stats, lines, scheme, morphs, script)


class TestUnitRatio:
    def test_identical_schemes(self):
        assert unit_ratio(["ab cd"], UnitScheme.word(), UnitScheme.word()) == 1.0

    def test_unigram_vs_word(self):
        assert unit_ratio(["ab"], UnitScheme.char_unigram(), UnitScheme.word()) == 2.0

    def test_zero_denominator(self):
        with pytest.raises(DegenerateCorpusError):
            unit_ratio([], UnitScheme.word(), UnitScheme.word())
