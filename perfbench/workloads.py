"""Seeded workload inputs for the benchmark, built on tests/textgen.py.

A workload is a corpus for the segmentation commands plus an aligned
reference / hypothesis / source / target set and an n-best list for the
scoring commands. Everything is a pure function of the seed, so the same
seed gives byte-identical inputs. Every command of the benchmark runs on
every workload; the workloads differ in the text properties the program's
behaviour depends on:

- ``hindi``: Devanagari running text whose word tokens mostly repeat, so
  the syllable cache is hit and the per-word wrapper layers and corpus
  loading do the work. Word-level Le-BLEU on these lines compares many
  repeated word pairs.
- ``multiscript``: four abugida families plus Latin and Cyrillic drawn from
  large random vocabularies, so repetition is low, the syllable cache is
  mostly missed and the alphabetic scanner runs. Its words are short random
  strings, so the edit-distance calls of Le-BLEU see a different length mix.
"""

from __future__ import annotations

import hashlib
import random
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import textgen  # noqa: E402  (lives in the repository's tests/)

WORKLOADS = ("hindi", "multiscript")

# Input sizes per command at scale 1. Each is chosen so that one command
# takes roughly half a second to a second of in-process time on a 2-vCPU
# machine with the numpy kernels.
SIZES = {
    "hindi": {
        "corpus_words": 30_000,
        "lcsr_pairs": 200,
        "correlate_lines": 100,
        "bleu_lines": 4_000,
        "lebleu_lines": 25,
        "nbest_sentences": 300,
    },
    "multiscript": {
        "corpus_sentences_per_family": 550,
        "vocab_per_family": 12_000,
        "lcsr_pairs": 500,
        "correlate_lines": 250,
        "bleu_lines": 8_000,
        "lebleu_lines": 100,
        "nbest_sentences": 500,
    },
}
LEBLEU_WORDS = {"hindi": 12, "multiscript": 6}
NBEST_K = 10
SAMPLE_LINES = 40  # lines in each oracle-check sample

_FAMILIES = tuple(textgen.ALPHABETS)
_SCRIPT_RANGES = (
    ("devanagari", 0x0900, 0x097F),
    ("bengali", 0x0980, 0x09FF),
    ("tamil", 0x0B80, 0x0BFF),
    ("malayalam", 0x0D00, 0x0D7F),
    ("cyrillic", 0x0400, 0x04FF),
)


@dataclass
class Workload:
    """Generated input files (name -> lines) and the n-best variants."""

    name: str
    seed: int
    files: dict[str, list[str]] = field(default_factory=dict)
    # (sentence id, variant text, feature text) per n-best entry; the text
    # is OS-segmented by the program before it becomes an n-best list
    nbest_variants: list[tuple[int, str, str]] = field(default_factory=list)
    nbest_scores: list[str] = field(default_factory=list)


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _noisy(line: str, rate: float, alphabet: str, rng: random.Random) -> str:
    """Copy of a line with character edits in about `rate` of its words."""
    words = line.split()
    for i, word in enumerate(words):
        if rng.random() >= rate:
            continue
        chars = list(word)
        pos = rng.randrange(len(chars))
        op = rng.randrange(3)
        if op == 0:
            chars[pos] = rng.choice(alphabet)
        elif op == 1:
            chars.insert(pos, rng.choice(alphabet))
        elif len(chars) > 1:
            del chars[pos]
        else:
            chars.append(rng.choice(alphabet))
        words[i] = "".join(chars)
    return _nfc(" ".join(words))


def _hindi_lines(n_words: int, rng: random.Random) -> list[tuple[str, str]]:
    alphabet = textgen.ALPHABETS["devanagari"]
    return [(line, alphabet) for line in textgen.hindi_like_corpus(n_words, rng.randrange(2**31))]


def _multiscript_lines(per_family: int, vocab: int, rng: random.Random) -> list[tuple[str, str]]:
    lines = []
    for family in _FAMILIES:
        sentences = textgen.random_sentences(
            family, per_family, rng.randrange(2**31), vocab_size=vocab
        )
        lines += [(s, textgen.ALPHABETS[family]) for s in sentences]
    rng.shuffle(lines)
    return lines


def _source(name: str, sizes: dict, n_lines: int, rng: random.Random,
            words: int | None = None) -> list[tuple[str, str]]:
    """n_lines (line, alphabet) pairs of the workload's text.

    With `words`, only lines of exactly that many tokens are kept.
    """
    lines: list[tuple[str, str]] = []
    while len(lines) < n_lines:
        if name == "hindi":
            batch = _hindi_lines(n_lines * 13 * (10 if words else 1), rng)
        else:
            per_family = -(-n_lines // len(_FAMILIES)) * (10 if words else 1)
            batch = _multiscript_lines(per_family, sizes["vocab_per_family"], rng)
        lines += [x for x in batch if words is None or len(x[0].split()) == words]
    return lines[:n_lines]


def _parallel(lines: list[tuple[str, str]], rng: random.Random) -> dict[str, list[str]]:
    """Reference lines with source/target and hypothesis noisy copies.

    The noise rate varies per line, and the hypothesis rate follows the
    target rate, so both LCSR series vary and their correlation is defined.
    """
    out = {"ref": [], "hyp": [], "src": [], "tgt": []}
    for line, alphabet in lines:
        rate = rng.uniform(0.05, 0.7)
        out["ref"].append(line)
        out["src"].append(line)
        out["tgt"].append(_noisy(line, rate, alphabet, rng))
        out["hyp"].append(_noisy(line, min(1.0, rate * rng.uniform(0.5, 1.5)), alphabet, rng))
    return out


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Generate every input of one workload from its seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    sizes = {k: v if k == "vocab_per_family" else max(2, int(v * scale))
             for k, v in SIZES[name].items()}
    rng = random.Random(seed)
    wl = Workload(name, seed)

    if name == "hindi":
        corpus = [line for line, _ in _hindi_lines(sizes["corpus_words"], rng)]
    else:
        corpus = [line for line, _ in _multiscript_lines(
            sizes["corpus_sentences_per_family"], sizes["vocab_per_family"], rng)]
    wl.files["corpus"] = corpus

    for command, key in (("lcsr", "lcsr_pairs"), ("correlate", "correlate_lines"),
                         ("bleu", "bleu_lines"), ("lebleu", "lebleu_lines")):
        # Le-BLEU's work grows with the square of a line's word count, so its
        # lines all have one length and the work per line is alike across seeds
        words = LEBLEU_WORDS[name] if command == "lebleu" else None
        par = _parallel(_source(name, sizes, sizes[key], rng, words), rng)
        if command == "lcsr":
            wl.files["lcsr.a"], wl.files["lcsr.b"] = par["src"], par["tgt"]
        elif command == "correlate":
            for part in ("src", "tgt", "hyp", "ref"):
                wl.files[f"correlate.{part}"] = par[part]
        else:
            wl.files[f"{command}.hyp"], wl.files[f"{command}.ref"] = par["hyp"], par["ref"]

    refs = _source(name, sizes, sizes["nbest_sentences"], rng)
    wl.files["nbest.ref"] = [line for line, _ in refs]
    for sid, (line, alphabet) in enumerate(refs):
        for _ in range(NBEST_K):
            variant = _noisy(line, rng.uniform(0.0, 0.6), alphabet, rng)
            features = f"lm: {-rng.uniform(10, 90):.4f} tm: {-rng.uniform(1, 30):.4f}"
            wl.nbest_variants.append((sid, variant, features))
    wl.nbest_scores = [f"{-rng.uniform(0, 50):.4f}" for _ in wl.nbest_variants]

    # oracle-check samples: a seeded subset of aligned lines
    sample = sorted(rng.sample(range(len(wl.files["lcsr.a"])),
                               min(SAMPLE_LINES, len(wl.files["lcsr.a"]))))
    for part in ("a", "b"):
        wl.files[f"sample.lcsr.{part}"] = [wl.files[f"lcsr.{part}"][i] for i in sample]
    sample = sorted(rng.sample(range(len(wl.files["correlate.ref"])),
                               min(SAMPLE_LINES, len(wl.files["correlate.ref"]))))
    for part in ("src", "tgt", "hyp", "ref"):
        wl.files[f"sample.correlate.{part}"] = [wl.files[f"correlate.{part}"][i] for i in sample]
    sample = sorted(rng.sample(range(len(wl.files["lebleu.ref"])),
                               min(SAMPLE_LINES, len(wl.files["lebleu.ref"]))))
    for part in ("hyp", "ref"):
        wl.files[f"sample.lebleu.{part}"] = [wl.files[f"lebleu.{part}"][i] for i in sample]
    return wl


def nbest_lines(wl: Workload, segmented: list[str]) -> list[str]:
    """Moses-format n-best lines from the OS-segmented variants."""
    return [
        f"{sid} ||| {tokens} ||| {features} ||| {score}"
        for (sid, _, features), tokens, score in zip(wl.nbest_variants, segmented, wl.nbest_scores)
    ]


def _script_of(word: str) -> str:
    for ch in word:
        cp = ord(ch)
        if "a" <= ch.lower() <= "z":
            return "latin"
        for script, lo, hi in _SCRIPT_RANGES:
            if lo <= cp <= hi:
                return script
    return "other"


def properties(wl: Workload) -> dict:
    """Fingerprint and text properties of the generated inputs."""
    digest = hashlib.sha256()
    for fname in sorted(wl.files):
        digest.update(fname.encode() + b"\0")
        digest.update("\n".join(wl.files[fname]).encode("utf-8") + b"\0")
    for (sid, variant, features), score in zip(wl.nbest_variants, wl.nbest_scores):
        digest.update(f"{sid}\t{variant}\t{features}\t{score}\n".encode("utf-8"))
    corpus = wl.files["corpus"]
    words = [w for line in corpus for w in line.split()]
    distinct = len(set(words))
    scripts = Counter(_script_of(w) for w in words)
    return {
        "sha256": digest.hexdigest(),
        "corpus_lines": len(corpus),
        "corpus_words": len(words),
        "distinct_words": distinct,
        "word_repeat_share": 1.0 - distinct / len(words),
        "mean_line_chars": sum(map(len, corpus)) / len(corpus),
        "mean_word_chars": sum(map(len, words)) / len(words),
        "script_mix": {k: v / len(words) for k, v in sorted(scripts.items())},
        "lines_per_file": {k: len(v) for k, v in sorted(wl.files.items())},
        "nbest_entries": len(wl.nbest_variants),
    }
