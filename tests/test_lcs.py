"""LCS kernels against the plain DP and a brute-force oracle; lcsr, corpus lcsr."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcs_oracle import brute_force_edit, brute_force_lcs
from orthosyl.errors import AlignmentError, EmptyInputError
from orthosyl.metrics import aligned_pairs, corpus_lcsr, edit_distance, lcs_length, lcsr
from orthosyl.metrics import lcs


def assert_agrees(a: str, b: str) -> None:
    ca, cb = lcs.encode(a), lcs.encode(b)
    assert lcs_length(a, b) == lcs._lcs_len_py(ca, cb), (a, b)
    assert edit_distance(a, b) == lcs._edit_distance_py(ca, cb), (a, b)


def test_exhaustive_binary_alphabet():
    words = ["".join(p) for n in range(7) for p in itertools.product("ab", repeat=n)]
    for a in words:
        for b in words:
            assert_agrees(a, b)


def random_pairs(seed):
    # Lengths 0-200 put the highest bit of the vectors on both sides of the
    # 30-, 60- and 64-bit boundaries of machine words and int digits.
    rng = random.Random(seed)
    for alphabet_size in (2, 4, 60):
        alphabet = [chr(0x0915 + i) for i in range(alphabet_size)]
        for _ in range(50):
            yield (
                "".join(rng.choices(alphabet, k=rng.randint(0, 200))),
                "".join(rng.choices(alphabet, k=rng.randint(0, 200))),
            )


def test_lcs_agrees_with_plain_dp():
    for a, b in random_pairs(3):
        want = lcs._lcs_len_py(lcs.encode(a), lcs.encode(b))
        assert lcs_length(a, b) == want, (a, b)


def test_edit_distance_agrees_with_plain_dp():
    for a, b in random_pairs(4):
        want = lcs._edit_distance_py(lcs.encode(a), lcs.encode(b))
        assert edit_distance(a, b) == want, (a, b)


@pytest.mark.parametrize("n", [29, 30, 31, 59, 60, 61, 63, 64, 65])
def test_lengths_at_word_boundaries(n):
    rng = random.Random(n)
    a = "".join(rng.choices("abc", k=n))
    for m in (0, 1, n - 1, n, n + 1):
        assert_agrees(a, "".join(rng.choices("abc", k=m)))


def assert_edit_agrees(a: str, b: str) -> None:
    want = lcs._edit_distance_py(lcs.encode(a), lcs.encode(b))
    assert edit_distance(a, b) == edit_distance(b, a) == want, (a, b)
    if len(a) + len(b) <= 24:
        assert want == brute_force_edit(a, b), (a, b)


def test_cached_word_as_longer_then_shorter_string():
    # edit_distance caches the masks of the longer string only; the same
    # word must give the same distances whichever side it is on, and
    # whether its masks are built or reused
    lcs._word_masks.cache_clear()
    word = "कखगकघ"
    for other in ("कखगकघङ" * 2, "खग", "कखगकघ", "घकगखक", "क", "कखगकघङच", "ङचछ"):
        assert_edit_agrees(word, other)
        assert_edit_agrees(other, word)
    assert lcs._word_masks.cache_info().hits > 0


def test_repeated_pairs_read_the_cache():
    rng = random.Random(6)
    words = ["".join(rng.choices("abcd", k=rng.randint(0, lcs._CACHED_LENGTH))) for _ in range(80)]
    pairs = list(zip(words[::2], words[1::2]))
    lcs._word_masks.cache_clear()
    for a, b in pairs:
        assert_edit_agrees(a, b)
    built = lcs._word_masks.cache_info().misses
    for a, b in pairs:
        assert_edit_agrees(a, b)
    assert lcs._word_masks.cache_info().misses == built
    # callers only read the cached masks, so each is still what _match_masks builds
    for a, b in pairs:
        longer = max(a, b, key=len)
        assert lcs._word_masks(longer) == lcs._match_masks(longer)


def test_evicted_words_are_rebuilt():
    maxsize = lcs._word_masks.cache_info().maxsize
    rng = random.Random(7)
    words = list(dict.fromkeys(
        "".join(rng.choices("abcdef", k=rng.randint(8, 12))) for _ in range(3 * maxsize)))
    words = words[:maxsize + 100]
    assert len(words) == maxsize + 100
    lcs._word_masks.cache_clear()
    want = [lcs._edit_distance_py(lcs.encode(w), lcs.encode("abc")) for w in words]
    assert [edit_distance(w, "abc") for w in words] == want
    info = lcs._word_masks.cache_info()
    assert (info.misses, info.currsize) == (maxsize + 100, maxsize)
    # the first 100 words are evicted; they and the rest still score the same
    assert [edit_distance("abc", w) for w in words] == want
    assert lcs._word_masks.cache_info().misses > maxsize + 100


def affix_pairs(seed):
    # prefix + middle + suffix, where the prefix and suffix that lcs_length
    # strips are 29-65 code points together, so the stripped length falls on
    # both sides of the 30-, 60- and 64-bit boundaries; the middles, 0-70
    # code points, put the bit loop's vectors on both sides of them too
    rng = random.Random(seed)
    for n in (29, 30, 31, 59, 60, 61, 63, 64, 65):
        for split in (0, n // 2, n):
            prefix = "".join(rng.choices("abc", k=split))
            suffix = "".join(rng.choices("abc", k=n - split))
            for _ in range(3):
                a = "".join(rng.choices("abc", k=rng.randint(0, 70)))
                b = "".join(rng.choices("abc", k=rng.randint(0, 70)))
                yield prefix + a + suffix, prefix + b + suffix


def test_shared_affixes_agree_with_plain_dp():
    for a, b in affix_pairs(5):
        assert_agrees(a, b)
        assert_agrees(b, a)


@pytest.mark.parametrize("n", [0, 1, 29, 30, 31, 32, 33, 59, 60, 61, 63, 64, 65, 130])
def test_equal_strings_at_word_boundaries(n):
    # edit_distance reads the distance off the last column's deltas; 32 and
    # 33 straddle the longest string whose masks it caches
    s = "".join(random.Random(n).choices("abc", k=n))
    assert lcs_length(s, s) == len(s)
    assert edit_distance(s, s) == 0
    assert edit_distance(s, "") == edit_distance("", s) == n
    assert_agrees(s, s)


@pytest.mark.parametrize("n", [1, 29, 30, 31, 59, 60, 61, 63, 64, 65, 130])
def test_one_string_a_prefix_or_suffix_of_the_other(n):
    s = "".join(random.Random(n).choices("abc", k=n))
    for k in sorted({0, 1, n // 2, n - 1, n}):
        for part in (s[:k], s[k:]):
            assert lcs_length(s, part) == lcs_length(part, s) == len(part)
            assert edit_distance(s, part) == n - len(part)
            assert_agrees(s, part)


@pytest.mark.parametrize(
    "a,b,want",
    [
        # the common prefix and the common suffix could overlap in the
        # shorter string; each code point may be counted once only
        ("aXa", "aa", 2),
        ("aaa", "aa", 2),
        ("aaXaa", "aaa", 3),
        ("abab", "ab", 2),
        ("aba", "aa", 2),
        ("abcXabc", "abcabc", 6),
        ("abXba", "aba", 3),
        ("aXbXa", "aba", 3),
    ],
)
def test_overlapping_prefix_and_suffix_runs(a, b, want):
    assert lcs_length(a, b) == lcs_length(b, a) == brute_force_lcs(a, b) == want
    assert edit_distance(a, b) == edit_distance(b, a) == brute_force_edit(a, b)
    assert_agrees(a, b)


@settings(max_examples=300)
@given(
    st.text(alphabet="ab", max_size=4),
    st.text(alphabet="abc", max_size=5),
    st.text(alphabet="abc", max_size=5),
    st.text(alphabet="ab", max_size=4),
)
def test_shared_affixes_match_brute_force(prefix, a, b, suffix):
    a, b = prefix + a + suffix, prefix + b + suffix
    assert lcs_length(a, b) == brute_force_lcs(a, b)
    assert edit_distance(a, b) == brute_force_edit(a, b)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40), st.text(max_size=40))
def test_arbitrary_text(a, b):
    assert_agrees(a, b)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=0x10000), max_size=20),
       st.text(alphabet=st.characters(min_codepoint=0x10000), max_size=20))
def test_astral_code_points(a, b):
    assert_agrees(a, b)


def test_empty_inputs():
    assert lcs_length("", "") == 0
    assert edit_distance("", "") == 0
    for s in ("a", "abc", "कखग", "\U0001F600x", "ab" * 70):
        assert lcs_length(s, "") == lcs_length("", s) == 0
        assert edit_distance(s, "") == edit_distance("", s) == len(s)


@pytest.mark.parametrize("s", ["a", "abc", "कखग", "\U0001F600x\U0001F600", "ab" * 70])
def test_identical_strings(s):
    assert lcs_length(s, s) == len(s)
    assert edit_distance(s, s) == 0


def test_encode():
    codes = lcs.encode("कa")
    assert codes.dtype == np.int32
    assert list(codes) == [0x915, ord("a")]
    assert lcs.encode("").shape == (0,)


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("abc", "abc", 3),
        ("abcd", "abed", 3),
        ("abc", "", 0),
        ("", "", 0),
        ("xyz", "abc", 0),
        ("घरासमोरचा", "घरासमोर", 7),  # 7-code-point prefix
    ],
)
def test_lcs_length_cases(a, b, want):
    assert lcs_length(a, b) == want
    assert lcs_length(b, a) == want


def test_lcs_exhaustive_small():
    # all pairs over {a,b,c} up to length 4: 121 strings, 14,641 pairs
    strings = [""]
    for length in range(1, 5):
        strings += ["".join(p) for p in itertools.product("abc", repeat=length)]
    for a in strings:
        for b in strings:
            assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)


@settings(max_examples=300)
@given(
    st.text(alphabet="abc", max_size=10),
    st.text(alphabet="abc", max_size=10),
)
def test_lcs_matches_brute_force(a, b):
    assert lcs_length(a, b) == brute_force_lcs(a, b)


@settings(max_examples=200)
@given(
    st.text(alphabet="abcde", max_size=12),
    st.text(alphabet="abcde", max_size=12),
)
def test_edit_distance_matches_brute_force(a, b):
    assert edit_distance(a, b) == brute_force_edit(a, b)


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("abc", "abc", 1.0),
        ("abcd", "abed", 0.75),
        ("xyz", "abc", 0.0),
        ("", "", 1.0),
        ("ab", "", 0.0),
        ("", "ab", 0.0),
    ],
)
def test_lcsr_cases(a, b, want):
    assert lcsr(a, b) == pytest.approx(want)


@settings(max_examples=200)
@given(st.text(max_size=12), st.text(max_size=12))
def test_lcsr_symmetry_and_bounds(a, b):
    assert lcsr(a, b) == lcsr(b, a)
    assert 0.0 <= lcsr(a, b) <= 1.0


@settings(max_examples=100)
@given(st.text(min_size=1, max_size=12))
def test_lcsr_identity(a):
    assert lcsr(a, a) == 1.0


def test_corpus_lcsr():
    pairs = [("abcd", "abed"), ("abc", "abc")]
    assert corpus_lcsr(pairs) == pytest.approx(0.875)


def test_corpus_lcsr_identical_files():
    lines = ["यह एक वाक्य है", "दूसरा वाक्य"]
    assert corpus_lcsr(aligned_pairs(lines, list(lines))) == 1.0


def test_corpus_lcsr_one_side_empty():
    assert corpus_lcsr([("ab", "")]) == 0.0


def test_corpus_lcsr_empty_corpus():
    with pytest.raises(EmptyInputError):
        corpus_lcsr([])


def test_corpus_lcsr_counts_whitespace():
    # spaces participate as ordinary characters
    assert corpus_lcsr([("a b", "ab")]) == pytest.approx(2 / 3)


def test_aligned_pairs_mismatch():
    with pytest.raises(AlignmentError, match="3 lines vs 2 lines"):
        aligned_pairs(["a", "b", "c"], ["a", "b"])


def test_random_sentences_vs_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        a = "".join(rng.choice("अबकखग ") for _ in range(rng.randint(0, 15)))
        b = "".join(rng.choice("अबकखग ") for _ in range(rng.randint(0, 15)))
        assert lcs_length(a, b) == brute_force_lcs(a, b)
