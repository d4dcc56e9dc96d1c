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
