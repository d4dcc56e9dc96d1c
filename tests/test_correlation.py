"""Pearson correlation against a direct-formula oracle."""

import random

import pytest

from orthosyl.errors import AlignmentError, ParameterError, UndefinedCorrelationError
from orthosyl.metrics import pearson, similarity_correlation
from pearson_oracle import pearson_oracle


def test_exact_positive():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0


def test_exact_negative():
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0


def test_known_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_matches_oracle_on_random_vectors():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(2, 40)
        xs = [rng.uniform(-5, 5) for _ in range(n)]
        ys = [rng.uniform(-5, 5) for _ in range(n)]
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            continue
        assert pearson(xs, ys) == pytest.approx(pearson_oracle(xs, ys), abs=1e-12)


def test_zero_variance():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 2, 3], [5, 5, 5])


def test_too_short():
    with pytest.raises(ParameterError):
        pearson([1], [2])


def test_length_mismatch():
    with pytest.raises(ParameterError):
        pearson([1, 2], [1, 2, 3])


def test_similarity_correlation_constant_is_undefined():
    src = ["abc", "def"]
    with pytest.raises(UndefinedCorrelationError):
        similarity_correlation(src, src, src, src)


def test_similarity_correlation_two_point():
    # one perfect pair and one disjoint pair on both axes
    src = ["abc", "xyz"]
    tgt = ["abc", "abc"]
    hyp = ["pqr", "mno"]
    ref = ["pqr", "zzz"]
    assert similarity_correlation(src, tgt, hyp, ref) == pytest.approx(1.0)


def test_similarity_correlation_oracle_equivalence():
    from orthosyl.metrics import lcsr

    rng = random.Random(7)
    alphabet = "abcdef "
    files = [
        ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
         for _ in range(30)]
        for _ in range(4)
    ]
    src, tgt, hyp, ref = files
    xs = [lcsr(s, t) for s, t in zip(src, tgt)]
    ys = [lcsr(h, r) for h, r in zip(hyp, ref)]
    want = pearson_oracle(xs, ys)
    assert similarity_correlation(src, tgt, hyp, ref) == pytest.approx(want, abs=1e-12)


def test_similarity_correlation_alignment():
    with pytest.raises(AlignmentError):
        similarity_correlation(["a"], ["a", "b"], ["a"], ["a"])
    with pytest.raises(AlignmentError):
        similarity_correlation(["a", "b"], ["a", "b"], ["a"], ["a"])
