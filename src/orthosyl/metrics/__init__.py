"""Measurement suite: LCSR, Pearson correlation, BLEU, Le-BLEU, rescoring."""

from .bleu import BleuReport, bleu, sentence_bleu_smoothed
from .correlation import pearson, similarity_correlation
from .lcs import aligned_pairs, corpus_lcsr, edit_distance, lcs_length, lcsr
from .lebleu import lebleu, lebleu_report, word_similarity
from .nbest import NBestEntry, NBestList, parse_nbest, rescore_nbest

__all__ = [
    "BleuReport",
    "NBestEntry",
    "NBestList",
    "aligned_pairs",
    "bleu",
    "corpus_lcsr",
    "edit_distance",
    "lcs_length",
    "lcsr",
    "lebleu",
    "lebleu_report",
    "parse_nbest",
    "pearson",
    "rescore_nbest",
    "sentence_bleu_smoothed",
    "similarity_correlation",
    "word_similarity",
]
