"""Bit-parallel kernels against the plain-DP reference."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthosyl.metrics import edit_distance, lcs_length
from orthosyl.metrics import kernels


def assert_agrees(a: str, b: str) -> None:
    ca, cb = kernels.encode(a), kernels.encode(b)
    assert lcs_length(a, b) == kernels._lcs_len_py(ca, cb), (a, b)
    assert edit_distance(a, b) == kernels._edit_distance_py(ca, cb), (a, b)


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
        want = kernels._lcs_len_py(kernels.encode(a), kernels.encode(b))
        assert lcs_length(a, b) == want, (a, b)


def test_edit_distance_agrees_with_plain_dp():
    for a, b in random_pairs(4):
        want = kernels._edit_distance_py(kernels.encode(a), kernels.encode(b))
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
    codes = kernels.encode("कa")
    assert codes.dtype == np.int32
    assert list(codes) == [0x915, ord("a")]
    assert kernels.encode("").shape == (0,)
