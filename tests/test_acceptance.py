"""Acceptance suite: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with the measured values.
"""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from lcs_oracle import brute_force_lcs  # noqa: E402
from pearson_oracle import pearson_oracle  # noqa: E402
from textgen import hindi_like_corpus, random_sentences  # noqa: E402

from orthosyl.corpus import load_corpus, vocab_stats  # noqa: E402
from orthosyl.metrics import (  # noqa: E402
    bleu,
    lcs_length,
    lebleu,
    lebleu_report,
    pearson,
)
from orthosyl.segment import (  # noqa: E402
    MorphLexicon,
    UnitScheme,
    detokenize,
    segment_word,
    tokenize_sentence,
)
from orthosyl.syllabify import syllabify  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" — {detail}" if detail else ""
    print(f"\nacceptance criterion {number} ({name}): PASS{suffix}")


def test_criterion_1_golden_syllabification():
    start = time.perf_counter()

    def units(word):
        return [u.text for u in syllabify(word)]

    assert units("लक्षमी") == ["ल", "क्ष", "मी"]
    assert units("मुम्बई") == ["मु", "म्ब", "ई"]
    assert units("lakshami") == ["la", "ksha", "mi"]
    assert units("mumbai") == ["mu", "mbai"]
    assert units("घरासमोरचा") == ["घ", "रा", "स", "मो", "र", "चा"]

    word = "घरासमोरचा"
    assert segment_word(word, UnitScheme.char_unigram()) == [
        "घ", "र", "ा", "स", "म", "ो", "र", "च", "ा",
    ]
    assert segment_word(word, UnitScheme.char_ngram(3)) == ["घरा", "समो", "रचा"]
    lex = MorphLexicon({word: ["घरा", "समोर", "चा"]})
    assert segment_word(word, UnitScheme.morph(), lex) == ["घरा", "समोर", "चा"]
    assert segment_word(word, UnitScheme.word()) == [word]

    w_line = "राजू , घराबाहेर जाऊ नको ."
    o_line = "रा जू _ , _ घ रा बा हे र _ जा ऊ _ न को _ ."
    assert str(tokenize_sentence(w_line, UnitScheme.word())) == w_line
    assert str(tokenize_sentence(w_line, UnitScheme.ortho_syllable())) == o_line

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "golden syllabification", f"all published examples exact in {elapsed:.3f}s")


FAMILIES = ("devanagari", "bengali", "tamil", "malayalam", "latin", "cyrillic")
SCHEMES = (
    UnitScheme.word(),
    UnitScheme.morph(),
    UnitScheme.char_unigram(),
    UnitScheme.char_ngram(3),
    UnitScheme.ortho_syllable(),
)


@pytest.mark.parametrize("family", FAMILIES)
def test_criterion_2_round_trip(family):
    sentences = random_sentences(family, 10_000, seed=1729)
    empty_lexicon = MorphLexicon()
    failures = 0
    for scheme in SCHEMES:
        morphs = empty_lexicon if scheme.kind == "morph" else None
        for sentence in sentences:
            ts = tokenize_sentence(sentence, scheme, morphs=morphs)
            if detokenize(ts) != sentence:
                failures += 1
    assert failures == 0
    report(
        2,
        f"round trip [{family}]",
        f"10,000 sentences x {len(SCHEMES)} schemes, zero failures",
    )


def test_criterion_3_lcs_oracle():
    start = time.perf_counter()
    checked = 0
    # exhaustive at short lengths: every pair over {a,b,c} up to length 4
    strings = [""]
    for length in range(1, 5):
        strings += ["".join(p) for p in itertools.product("abc", repeat=length)]
    for a in strings:
        for b in strings:
            assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)
            checked += 1
    # seeded random coverage of the full length range up to 10
    rng = random.Random(31415)
    for _ in range(3000):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(5, 10)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
        assert lcs_length(a, b) == brute_force_lcs(a, b), (a, b)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "LCS oracle equivalence", f"{checked} pairs exact in {elapsed:.1f}s")


def random_corpora(rng, sentences=5, min_len=1, max_len=9):
    vocab = ["ghara", "gharA", "samora", "samor", "cA", "ahe", "nako", "rAjU"]
    make = lambda: [
        " ".join(rng.choices(vocab, k=rng.randint(min_len, max_len)))
        for _ in range(sentences)
    ]
    return make(), make()


def test_criterion_4_metric_identities():
    lines = ["the cat sat on the mat", "the dog barked at the moon all night"]
    self_report = bleu(lines, list(lines))
    assert self_report.score == pytest.approx(100.0, abs=1e-9)

    clipped = bleu(["the the the the the the the"], ["the cat is on the mat"])
    assert clipped.precisions[0] == pytest.approx(2 / 7, abs=1e-9)

    assert lebleu(lines, list(lines)) == pytest.approx(100.0, abs=1e-9)

    rng = random.Random(2718)
    for _ in range(100):
        hyps, refs = random_corpora(rng)
        assert lebleu(hyps, refs, delta=1.0) == pytest.approx(
            bleu(hyps, refs).score, abs=1e-9
        )
    rng = random.Random(1618)
    for _ in range(100):
        hyps, refs = random_corpora(rng)
        delta = rng.choice((0.3, 0.5, 0.6, 0.8))
        assert lebleu(hyps, refs, delta=delta) >= bleu(hyps, refs).score - 1e-9

    report(
        4,
        "metric identities",
        "BLEU/Le-BLEU self-score 100, p1=2/7, delta-1 equality and "
        "dominance on 100 random corpora",
    )


def test_criterion_5_correlation_oracle():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    rng = random.Random(41)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 50)
        xs = [rng.uniform(-10, 10) for _ in range(n)]
        ys = [rng.uniform(-10, 10) for _ in range(n)]
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            continue
        assert pearson(xs, ys) == pytest.approx(pearson_oracle(xs, ys), abs=1e-12)
        checked += 1
    report(5, "correlation oracle", "1,000 random vectors within 1e-12, ±1 exact")


def test_criterion_6_mean_os_length():
    lines = load_corpus(DATA_DIR / "hindi_sample.txt")
    word_count = sum(len(line.split()) for line in lines)
    assert word_count >= 1000
    stats = vocab_stats(lines, UnitScheme.ortho_syllable())
    assert 2.5 <= stats.mean_unit_length <= 5.5
    report(
        6,
        "mean OS length",
        f"{word_count} words, mean OS length "
        f"{stats.mean_unit_length:.3f} code points in [2.5, 5.5]",
    )


def test_criterion_7_vocabulary_ratio():
    corpus = hindi_like_corpus(100_000)
    word_count = sum(len(line.split()) for line in corpus)
    assert word_count >= 100_000
    os_types = vocab_stats(corpus, UnitScheme.ortho_syllable()).type_count
    tri_types = vocab_stats(corpus, UnitScheme.char_ngram(3)).type_count
    ratio = tri_types / os_types
    assert ratio > 3.0
    report(
        7,
        "vocabulary ratio",
        f"{word_count} words: {tri_types} trigram types / {os_types} OS types "
        f"= {ratio:.2f} (> 3)",
    )


def test_criterion_8_out_of_scope_results_documented():
    # End-to-end translation-accuracy numbers require specific corpora and
    # a full SMT stack; no test here asserts such numbers. The measurement
    # machinery behind them is covered by the other criteria instead.
    from orthosyl.metrics import corpus_lcsr, similarity_correlation  # noqa: F401

    report(
        8,
        "corpus-dependent results",
        "translation-accuracy numbers are out of scope by design; "
        "their measurement machinery is exercised by criteria 1-7",
    )


def test_criterion_9_cli_contract(tmp_path):
    # 10k-line mixed-script corpus
    lines = []
    per_family = 10_000 // len(FAMILIES)
    for i, family in enumerate(FAMILIES):
        lines += random_sentences(family, per_family, seed=100 + i)
    lines += random_sentences("devanagari", 10_000 - len(lines), seed=7)
    assert len(lines) == 10_000
    payload = "".join(line + "\n" for line in lines)

    seg = subprocess.run(
        [sys.executable, "-m", "orthosyl.cli", "segment", "--unit", "os"],
        input=payload,
        capture_output=True,
        text=True,
    )
    assert seg.returncode == 0
    assert seg.stderr == ""
    deseg = subprocess.run(
        [sys.executable, "-m", "orthosyl.cli", "desegment"],
        input=seg.stdout,
        capture_output=True,
        text=True,
    )
    assert deseg.returncode == 0
    assert deseg.stderr == ""
    assert deseg.stdout == payload

    # exit code and stream-separation contract
    bad = subprocess.run(
        [sys.executable, "-m", "orthosyl.cli", "desegment"],
        input="a _ _ b\n",
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert "line 1" in bad.stderr

    usage = subprocess.run(
        [sys.executable, "-m", "orthosyl.cli", "definitely-not-a-command"],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2
    report(
        9,
        "CLI contract",
        "segment --unit os | desegment is the identity on 10,000 mixed-script "
        "lines; exit codes 0/1/2 and stream separation verified",
    )
