"""Command-line entry point exposing every pipeline stage.

One binary with subcommands; every subcommand reads standard input when no
input path applies and writes data to standard output. Diagnostics go to
standard error only. Exit status: 0 on success, 1 on data errors, 2 on
usage errors. An adapter without rules of its own: option types are the
library's checks, so a bad value is a usage error before input is read,
and handlers return output lines that `run` alone writes.
"""

from __future__ import annotations

import argparse
import sys
import unicodedata
from typing import Callable, NamedTuple

from . import corpus as corpus_io
from . import metrics
from .errors import OrthosylError, ascii_float, ascii_int, map_lines
from .metrics.bleu import DEFAULT_MAX_N, check_max_n
from .metrics.lebleu import DEFAULT_DELTA, check_delta
from .scripts import SUPPORTED_SCRIPTS, ScriptId, classify, get_table
from .segment import (
    DEFAULT_MARKER,
    MorphLexicon,
    UnitScheme,
    check_marker,
    detokenize,
    segment_corpus,
    segment_word,
)

_SCRIPT_NAMES = sorted(s.value for s in SUPPORTED_SCRIPTS)


def _option(name: str, parse):
    """An argparse type: parse(text) runs a library check, whose OrthosylError is a usage error."""
    def option(text: str):
        try:
            return parse(text)
        except OrthosylError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    option.__name__ = name  # argparse's "invalid NAME value" for int() and float() errors
    return option


_script = _option("script", lambda text: get_table(ScriptId.parse(text)).script)
_script_or_auto = _option("script", lambda text: None if text.lower() == "auto" else _script(text))
_unit_scheme = _option("unit", UnitScheme.parse)
_marker = _option("marker", check_marker)
_max_n = _option("int", lambda text: check_max_n(ascii_int(text)))
_delta = _option("float", lambda text: check_delta(ascii_float(text)))
# signed: a negative size is the library check's to report
_sizes = _option("TRAIN,TUNE,TEST", lambda text: corpus_io.check_split_sizes(
    tuple(ascii_int(size, signed=True) for size in text.split(","))))
_seed = _option("int", lambda text: ascii_int(text, signed=True))


def _load_lexicon(path: str | None) -> MorphLexicon:
    # without a lexicon every word is unknown and passes through whole
    return MorphLexicon.load(path) if path else MorphLexicon()


def _cmd_segment(args, stdin):
    return segment_corpus(
        corpus_io.load_corpus(stdin),
        args.unit,
        marker=args.marker,
        morphs=_load_lexicon(args.morph_lexicon),
        script=args.script,
        on_marker_collision=args.on_marker_collision,
        skip_errors=args.skip_errors,
        error_sink=sys.stderr,
    )


def _cmd_desegment(args, stdin):
    return map_lines(lambda line: detokenize(line.split(), args.marker),
                     corpus_io.load_corpus(stdin))


def _cmd_syllabify(args, stdin):
    scheme = UnitScheme.ortho_syllable()
    return map_lines(lambda line: " ".join(
        unit for word in line.split() for unit in segment_word(word, scheme, script=args.script)
    ), corpus_io.load_corpus(stdin))


def _cmd_classify(args, stdin):
    script = args.script
    for line in corpus_io.load_corpus(stdin):
        for ch in line:
            # a whitespace or control code point would split or break the row
            shown = f"U+{ord(ch):04X}" if ch.isspace() or unicodedata.category(ch) == "Cc" else ch
            yield f"{shown}\t{script.value}\t{classify(ch, script).value}"


def _cmd_lcsr(args, stdin):
    a_lines = corpus_io.load_corpus(args.a)
    b_lines = corpus_io.load_corpus(args.b)
    pairs = metrics.aligned_pairs(a_lines, b_lines)
    if args.per_line:
        for a, b in pairs:
            yield f"{metrics.lcsr(a, b):.6f}"
    else:
        yield f"LCSR = {metrics.corpus_lcsr(pairs):.6f}"


def _cmd_correlate(args, stdin):
    value = metrics.similarity_correlation(
        corpus_io.load_corpus(args.src),
        corpus_io.load_corpus(args.tgt),
        corpus_io.load_corpus(args.hyp),
        corpus_io.load_corpus(args.ref),
    )
    yield f"Pearson = {value:.6f}"


def _cmd_score(args, stdin):
    hyps = corpus_io.load_corpus(args.hyp)
    refs = corpus_io.load_corpus(args.ref)
    if args.metric == "bleu":
        report = metrics.bleu(hyps, refs, max_n=args.max_n)
        label = "BLEU"
    else:
        delta = DEFAULT_DELTA if args.delta is None else args.delta
        report = metrics.lebleu_report(hyps, refs, delta=delta, max_n=args.max_n)
        label = "Le-BLEU"
    # the report first: a run that cannot write it prints no score
    if args.report:
        lines = [
            f"metric = {args.metric}",
            f"score = {report.score:.6f}",
            f"brevity_penalty = {report.brevity_penalty:.6f}",
            f"hyp_length = {report.hyp_length}",
            f"ref_length = {report.ref_length}",
        ]
        lines += [
            f"precision_{i + 1} = {p:.6f}" for i, p in enumerate(report.precisions)
        ]
        # one format for both metrics: Le-BLEU's matched mass is a float
        lines += [f"matched_{i + 1} = {m:.6f}" for i, m in enumerate(report.matched)]
        lines += [f"total_{i + 1} = {t}" for i, t in enumerate(report.total)]
        if args.metric == "lebleu":
            lines.append(f"delta = {delta}")
        corpus_io.write_corpus(lines, args.report)
    yield f"{label} = {report.score:.2f}"


def _cmd_nbest_rescore(args, stdin):
    nbest = metrics.parse_nbest(corpus_io.load_corpus(args.nbest), args.nbest)
    refs = corpus_io.load_corpus(args.ref)
    yield from metrics.rescore_nbest(nbest, refs, marker=args.marker).format_lines()


def _cmd_stats(args, stdin):
    stats = corpus_io.vocab_stats(
        corpus_io.load_corpus(stdin),
        args.unit,
        morphs=_load_lexicon(args.morph_lexicon),
        script=args.script,
    )
    yield stats.format_line()


def _cmd_split(args, stdin):
    lines = corpus_io.load_corpus(stdin)
    pieces = corpus_io.split_corpus(lines, args.sizes, seed=args.seed)
    for name, piece in zip(("train", "tune", "test"), pieces):
        corpus_io.write_corpus(piece, f"{args.out_prefix}.{name}")
    return []


def _opt(flag: str, **kwargs) -> tuple:
    """One option of a subcommand: parser.add_argument(flag, **kwargs) when it is built."""
    return flag, kwargs


def _path(flag: str) -> tuple:
    return _opt(flag, required=True, metavar="PATH")


_UNIT = _opt("--unit", required=True, type=_unit_scheme, help="word|morph|char|char-ngram=N|os")
_MARKER = _opt("--marker", default=DEFAULT_MARKER, type=_marker,
               help=f"word-boundary marker character (default: {DEFAULT_MARKER!r})")
_MORPH_LEXICON = _opt("--morph-lexicon", metavar="PATH")
_SCRIPT_OR_AUTO = _opt("--script", default="auto", type=_script_or_auto,
                       help="|".join(_SCRIPT_NAMES) + "|auto")


class _Command(NamedTuple):
    help: str
    options: tuple  # _opt pairs, in the order --help lists them
    handler: Callable  # (args, stdin) -> output lines


_COMMANDS = {
    "segment": _Command("segment sentences into units", (
        _UNIT, _MARKER, _MORPH_LEXICON, _SCRIPT_OR_AUTO,
        _opt("--on-marker-collision", choices=("error", "replace"), default="error"),
        _opt("--skip-errors", action="store_true",
             help="pass offending lines through instead of failing"),
    ), _cmd_segment),
    "desegment": _Command("invert sub-word segment output to sentences "
                          "(--unit word output already is the sentence)",
                          (_MARKER,), _cmd_desegment),
    "syllabify": _Command("each line's words -> space-joined syllables",
                          (_SCRIPT_OR_AUTO,), _cmd_syllabify),
    "classify": _Command("dump per-code-point classifications", (
        _opt("--script", required=True, type=_script, help="|".join(_SCRIPT_NAMES)),
    ), _cmd_classify),
    "lcsr": _Command("longest-common-subsequence ratio of two files", (
        _path("--a"), _path("--b"), _opt("--per-line", action="store_true"),
    ), _cmd_lcsr),
    "correlate": _Command("similarity vs translation-match correlation", (
        _path("--src"), _path("--tgt"), _path("--hyp"), _path("--ref"),
    ), _cmd_correlate),
    "score": _Command("BLEU / Le-BLEU of a hypothesis file", (
        _opt("--metric", choices=("bleu", "lebleu"), required=True),
        _path("--hyp"), _path("--ref"),
        _opt("--max-n", type=_max_n, default=DEFAULT_MAX_N),
        _opt("--delta", type=_delta,
             help=f"fuzzy word-match threshold (lebleu only, default {DEFAULT_DELTA})"),
        _opt("--report", metavar="PATH", help="also write a key-value report file"),
    ), _cmd_score),
    "nbest-rescore": _Command("append word-level BLEU to an n-best list", (
        _path("--nbest"), _path("--ref"), _MARKER,
    ), _cmd_nbest_rescore),
    "stats": _Command("unit-vocabulary statistics of a corpus", (
        _UNIT, _MORPH_LEXICON, _SCRIPT_OR_AUTO,
    ), _cmd_stats),
    "split": _Command("split a corpus into train/tune/test", (
        _opt("--sizes", required=True, type=_sizes, metavar="TRAIN,TUNE,TEST"),
        _opt("--seed", type=_seed),
        _path("--out-prefix"),
    ), _cmd_split),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of every subcommand, or of `command`'s alone.

    Each subparser's namespace holds it as `parser`, so that a check across
    options reports through it. With one subparser, the top-level usage
    still names every command, so its "unrecognized arguments" error reads
    the same.
    """
    parser = argparse.ArgumentParser(
        prog="orthosyl",
        description=(
            "Orthographic-syllable segmentation, subword unit representations "
            "and translation evaluation metrics."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, spec in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=spec.help)
            for flag, kwargs in spec.options:
                p.add_argument(flag, **kwargs)
            p.set_defaults(parser=p)
    return parser


def run(argv: list[str] | None = None, stdin=None, stdout=None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    # a process runs one command, so it builds that command's subparser only;
    # no command, --help, a typo or a leading option needs them all
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command == "score" and args.metric != "lebleu" and args.delta is not None:
        args.parser.error("--delta applies to --metric lebleu only")
    if args.command == "segment":
        try:
            check_marker(args.marker, args.on_marker_collision)
        except OrthosylError as exc:
            args.parser.error(f"argument --marker: {exc}")
    try:
        for line in _COMMANDS[args.command].handler(args, stdin):
            # two writes: a StringIO keeps each string, so line + "\n" would copy the output
            stdout.write(line)
            stdout.write("\n")
    except BrokenPipeError:
        return 1
    except (OrthosylError, OSError) as exc:
        # data errors and missing, unreadable or unwritable files: a diagnostic, not a traceback
        print(f"orthosyl {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
