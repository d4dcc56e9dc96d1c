"""CLI subcommands: behavior, exit codes, stdout/stderr separation."""

import argparse
import io
import re
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cli_cases import PER_LINE_ERRORS, per_line_argv, write_files
from test_surface import _options

from orthosyl.cli import _COMMANDS, build_parser, run
from orthosyl.corpus import check_split_sizes, load_corpus, split_corpus
from orthosyl.errors import OrthosylError
from orthosyl.metrics.bleu import check_max_n
from orthosyl.metrics.lebleu import check_delta
from orthosyl.scripts import ScriptId, get_table
from orthosyl.segment import UnitScheme, check_marker
from orthosyl.syllabify import syllabify


def invoke(argv, stdin_text=""):
    """In-process invocation; returns (exit_status, stdout_text)."""
    out = io.StringIO()
    status = run(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return status, out.getvalue()


def invoke_process(argv, stdin_text=""):
    """Real subprocess for stream-separation and exit-code checks."""
    return subprocess.run(
        [sys.executable, "-m", "orthosyl.cli", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


MARATHI_W = "राजू , घराबाहेर जाऊ नको ."
MARATHI_O = "रा जू _ , _ घ रा बा हे र _ जा ऊ _ न को _ ."


class TestSegmentDesegment:
    def test_marathi_sentence(self):
        status, out = invoke(["segment", "--unit", "os"], MARATHI_W + "\n")
        assert status == 0
        assert out == MARATHI_O + "\n"

    def test_desegment_inverts(self):
        status, out = invoke(["desegment"], MARATHI_O + "\n")
        assert status == 0
        assert out == MARATHI_W + "\n"

    def test_pipe_identity_all_subword_schemes(self):
        lines = "राजू , घराबाहेर जाऊ नको .\nmumbai is a city\nпривет мир\n"
        for unit in ("char", "char-ngram=3", "os", "morph"):
            # morph has no lexicon here: words pass through whole but still get markers
            _, segmented = invoke(["segment", "--unit", unit], lines)
            status, restored = invoke(["desegment"], segmented)
            assert status == 0
            assert restored == lines

    def test_unicode_line_separators_keep_line_count(self):
        status, out = invoke(["segment", "--unit", "char"], "ab\x85cd\nx\u2028y\n")
        assert status == 0
        assert out == "a b _ c d\nx _ y\n"

    def test_word_scheme_is_identity(self):
        status, out = invoke(["segment", "--unit", "word"], MARATHI_W + "\n")
        assert status == 0
        assert out == MARATHI_W + "\n"

    def test_marker_collision_exit_1(self):
        proc = invoke_process(["segment", "--unit", "char"], "bad_word\n")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "line 1" in proc.stderr

    def test_marker_collision_replace(self):
        status, out = invoke(
            ["segment", "--unit", "word", "--on-marker-collision", "replace"],
            "a_b\n",
        )
        assert status == 0
        assert out == "a▁b\n"

    def test_custom_marker(self):
        _, out = invoke(["segment", "--unit", "char", "--marker", "|"], "ab cd\n")
        assert out == "a b | c d\n"
        status, back = invoke(["desegment", "--marker", "|"], out)
        assert back == "ab cd\n"

    def test_forced_script(self):
        _, out = invoke(
            ["segment", "--unit", "os", "--script", "Devanagari"],
            "घर foreign\n",
        )
        assert out == "घ र _ foreign\n"

    def test_morph_lexicon_flag(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("घरासमोरचा\tघरा समोर चा\n", encoding="utf-8")
        _, out = invoke(
            ["segment", "--unit", "morph", "--morph-lexicon", str(lex)],
            "घरासमोरचा\n",
        )
        assert out == "घरा समोर चा\n"


class TestSyllabifyClassify:
    def test_syllabify_lines(self):
        status, out = invoke(["syllabify"], "लक्षमी\nmumbai\n")
        assert status == 0
        assert out == "ल क्ष मी\nmu mbai\n"

    def test_syllabify_hindi_sample(self):
        path = Path(__file__).parent / "data" / "hindi_sample.txt"
        lines = load_corpus(path)
        want = "".join(
            " ".join(u.text for word in line.split() for u in syllabify(word)) + "\n"
            for line in lines
        )
        status, out = invoke(["syllabify"], path.read_text(encoding="utf-8"))
        assert status == 0
        assert out == want

    def test_classify_dump(self):
        status, out = invoke(["classify", "--script", "Devanagari"], "कीq\n")
        assert status == 0
        assert out.splitlines() == [
            "क\tDevanagari\tConsonant",
            "ी\tDevanagari\tDependentVowel",
            "q\tDevanagari\tNonScript",
        ]
        # the three signs after a consonant, ZWJ and an ASCII class letter
        status, out = invoke(["classify", "--script", "Devanagari"], "कंँः\u200dx\n")
        assert status == 0
        assert [row.split("\t")[2] for row in out.splitlines()] == [
            "Consonant", "Anusvara", "Chandrabindu", "Visarga", "OtherSign", "NonScript",
        ]
        # a tab or CR is written as its code point, so every row keeps three fields
        status, out = invoke(["classify", "--script", "Latin"], "a\tb\rc\n")
        assert status == 0
        rows = [row.split("\t") for row in out.splitlines()]
        assert all(len(row) == 3 for row in rows), rows
        assert [row[0] for row in rows] == ["a", "U+0009", "b", "U+000D", "c"]

    def test_mixed_script_exit_1(self):
        proc = invoke_process(["syllabify"], "घरmix\n")
        assert proc.returncode == 1
        assert "line 1" in proc.stderr


class TestMetricsCommands:
    def test_score_bleu_self_is_100(self, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("the cat sat on the mat\n", encoding="utf-8")
        status, out = invoke(
            ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(hyp)]
        )
        assert status == 0
        assert out == "BLEU = 100.00\n"

    def test_score_lebleu_with_report(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        report = tmp_path / "report.txt"
        hyp.write_text("gharasamora ahe nako ghara\n", encoding="utf-8")
        ref.write_text("gharasamor ahe nako ghara\n", encoding="utf-8")
        status, out = invoke(
            [
                "score", "--metric", "lebleu",
                "--hyp", str(hyp), "--ref", str(ref),
                "--report", str(report),
            ]
        )
        assert status == 0
        assert out.startswith("Le-BLEU = ")
        text = report.read_text(encoding="utf-8")
        assert "metric = lebleu" in text
        assert "precision_1 = " in text
        assert "delta = 0.6" in text

    def test_bleu_report_equals_lebleu_delta1_report(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b a b c\nc a\n", encoding="utf-8")
        ref.write_text("a b a c\nc a b\n", encoding="utf-8")
        reports = {}
        for metric in ("bleu", "lebleu"):
            path = tmp_path / f"{metric}.txt"
            extra = ["--delta", "1"] if metric == "lebleu" else []
            status, _ = invoke(["score", "--metric", metric, *extra, "--hyp", str(hyp),
                                "--ref", str(ref), "--report", str(path)])
            assert status == 0
            lines = path.read_text(encoding="utf-8").splitlines()
            reports[metric] = [x for x in lines if not x.startswith(("metric ", "delta "))]
        assert reports["bleu"] == reports["lebleu"]
        assert "matched_1 = 6.000000" in reports["bleu"]
        assert "total_1 = 7" in reports["bleu"]
        assert "total_2 = 5" in reports["bleu"]

    def test_unwritable_report_prints_no_score(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b\n", encoding="utf-8")
        status, out = invoke(["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(hyp),
                              "--report", str(tmp_path / "missing" / "r.txt")])
        err = capsys.readouterr().err
        assert status == 1
        assert out == ""
        assert err.startswith("orthosyl score: error: ")
        assert err.count("\n") == 1

    def test_score_bleu_rejects_delta(self, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b\n", encoding="utf-8")
        proc = invoke_process(["score", "--metric", "bleu", "--delta", "0.3",
                               "--hyp", str(hyp), "--ref", str(hyp)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: orthosyl score ")
        assert "orthosyl score: error: --delta applies to --metric lebleu only\n" in proc.stderr

    def test_lcsr_summary_and_per_line(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("abcd\nabc\n", encoding="utf-8")
        b.write_text("abed\nabc\n", encoding="utf-8")
        status, out = invoke(["lcsr", "--a", str(a), "--b", str(b)])
        assert status == 0
        assert out == "LCSR = 0.875000\n"
        _, out = invoke(["lcsr", "--a", str(a), "--b", str(b), "--per-line"])
        assert out == "0.750000\n1.000000\n"

    def test_correlate(self, tmp_path):
        files = {}
        for name, lines in (
            ("src", ["abc", "xyz"]),
            ("tgt", ["abc", "abc"]),
            ("hyp", ["pqr", "mno"]),
            ("ref", ["pqr", "zzz"]),
        ):
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            files[name] = str(path)
        status, out = invoke(
            [
                "correlate",
                "--src", files["src"], "--tgt", files["tgt"],
                "--hyp", files["hyp"], "--ref", files["ref"],
            ]
        )
        assert status == 0
        assert out == "Pearson = 1.000000\n"

    def test_nbest_rescore(self, tmp_path):
        nbest = tmp_path / "nbest.txt"
        ref = tmp_path / "ref.txt"
        nbest.write_text(
            "0 ||| रा जू _ न को ||| lm=-1 ||| -2.5\n", encoding="utf-8"
        )
        ref.write_text("राजू नको\n", encoding="utf-8")
        status, out = invoke(
            ["nbest-rescore", "--nbest", str(nbest), "--ref", str(ref)]
        )
        assert status == 0
        assert out == "0 ||| रा जू _ न को ||| lm=-1 ||| -2.5 ||| 100.0000\n"

    def test_nbest_rescore_rejects_a_score_in_other_digits(self, tmp_path, capsys):
        # float() alone reads ١٢ as 12
        nbest = tmp_path / "nbest.txt"
        nbest.write_text("0 ||| a ||| f ||| 1\n0 ||| a ||| f ||| \u0661\u0662\n", encoding="utf-8")
        ref = tmp_path / "ref.txt"
        ref.write_text("a\n", encoding="utf-8")
        status, out = invoke(["nbest-rescore", "--nbest", str(nbest), "--ref", str(ref)])
        assert status == 1
        assert out == ""
        assert capsys.readouterr().err == (f"orthosyl nbest-rescore: error: {nbest}: line 2: "
                                           "could not convert string to float: '\u0661\u0662'\n")


class TestStatsSplit:
    def test_stats_line(self):
        status, out = invoke(["stats", "--unit", "os"], "घरासमोरचा\n")
        assert status == 0
        assert out == "os\t6\t6\t1.5000\n"

    def test_stats_error_names_its_line(self):
        proc = invoke_process(["stats", "--unit", "os"], "ok\nFacebookपर\n")
        assert_one_line_error(proc, "stats")
        assert proc.stderr == (
            "orthosyl stats: error: line 2: "
            "word 'Facebookपर' mixes Latin and Devanagari letters\n"
        )

    def test_stats_error_names_the_first_line_of_a_repeated_word(self):
        proc = invoke_process(["stats", "--unit", "os"], "ok\nok Facebookपर\nFacebookपर\n")
        assert_one_line_error(proc, "stats")
        assert proc.stderr == (
            "orthosyl stats: error: line 2: "
            "word 'Facebookपर' mixes Latin and Devanagari letters\n"
        )

    def test_split_writes_three_files(self, tmp_path):
        prefix = tmp_path / "corpus"
        body = "".join(f"line {i}\n" for i in range(10))
        status, _ = invoke(
            ["split", "--sizes", "7,2,1", "--out-prefix", str(prefix)], body
        )
        assert status == 0
        assert (tmp_path / "corpus.train").read_text().splitlines() == [
            f"line {i}" for i in range(7)
        ]
        assert len((tmp_path / "corpus.tune").read_text().splitlines()) == 2
        assert len((tmp_path / "corpus.test").read_text().splitlines()) == 1

    def test_split_seeded_deterministic(self, tmp_path):
        body = "".join(f"line {i}\n" for i in range(10))
        outs = []
        for tag in ("x", "y"):
            prefix = tmp_path / tag
            invoke(
                ["split", "--sizes", "6,2,2", "--seed", "9", "--out-prefix", str(prefix)],
                body,
            )
            outs.append((tmp_path / f"{tag}.train").read_text())
        assert outs[0] == outs[1]

    def test_split_takes_a_negative_seed(self, tmp_path):
        body = "".join(f"line {i}\n" for i in range(10))
        status, _ = invoke(["split", "--sizes", "6,2,2", "--seed", "-9",
                            "--out-prefix", str(tmp_path / "x")], body)
        assert status == 0
        train, _, _ = split_corpus(body.splitlines(), (6, 2, 2), seed=-9)
        assert (tmp_path / "x.train").read_text().splitlines() == train

    def test_split_oversized_exit_1(self):
        proc = invoke_process(
            ["split", "--sizes", "5,1,1", "--out-prefix", "/tmp/x"], "one\n"
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr


def assert_one_line_error(proc, command):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"orthosyl {command}: error: "), lines


class TestFileErrors:
    def test_lcsr_missing_files(self, tmp_path):
        missing = str(tmp_path / "missing")
        proc = invoke_process(["lcsr", "--a", missing, "--b", missing])
        assert_one_line_error(proc, "lcsr")
        assert "No such file" in proc.stderr

    def test_missing_morph_lexicon(self, tmp_path):
        proc = invoke_process(
            ["segment", "--unit", "morph", "--morph-lexicon", str(tmp_path / "missing")],
            "x\n",
        )
        assert_one_line_error(proc, "segment")

    def test_invalid_utf8_morph_lexicon(self, tmp_path):
        lex = tmp_path / "lex"
        lex.write_bytes(b"ab\xff\tab\n")
        proc = invoke_process(
            ["segment", "--unit", "morph", "--morph-lexicon", str(lex)], "x\n"
        )
        assert_one_line_error(proc, "segment")
        assert "byte offset 2" in proc.stderr

    def test_invalid_utf8_names_the_file(self, tmp_path):
        good = tmp_path / "good.txt"
        bad = tmp_path / "bad.txt"
        good.write_text("ab\n", encoding="utf-8")
        bad.write_bytes(b"a\xffb\n")
        proc = invoke_process(["lcsr", "--a", str(good), "--b", str(bad)])
        assert_one_line_error(proc, "lcsr")
        assert f"error: {bad}: invalid UTF-8 at byte offset 1" in proc.stderr
        assert str(good) not in proc.stderr

    def test_split_unwritable_prefix(self, tmp_path):
        prefix = str(tmp_path / "no-such-dir" / "x")
        proc = invoke_process(["split", "--sizes", "1,0,0", "--out-prefix", prefix], "one\n")
        assert_one_line_error(proc, "split")

    def test_directory_as_input(self, tmp_path):
        status, out = invoke(["score", "--metric", "bleu", "--hyp", str(tmp_path),
                              "--ref", str(tmp_path)])
        assert status == 1
        assert out == ""


class TestContract:
    def test_usage_error_exit_2(self):
        proc = invoke_process(["no-such-command"])
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_missing_required_flag_exit_2(self):
        proc = invoke_process(["classify"])
        assert proc.returncode == 2

    def test_data_goes_to_stdout_only(self):
        proc = invoke_process(["segment", "--unit", "os"], MARATHI_W + "\n")
        assert proc.returncode == 0
        assert proc.stdout == MARATHI_O + "\n"
        assert proc.stderr == ""

    def test_diagnostics_go_to_stderr_only(self):
        proc = invoke_process(["desegment"], "a _ _ b\n")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "line 1" in proc.stderr

    def test_closed_stdout_exits_1_without_a_diagnostic(self, tmp_path):
        # the reader takes the first bytes and closes the pipe, as `| head -c 64` does
        corpus, errors = tmp_path / "corpus.txt", tmp_path / "stderr.txt"
        corpus.write_text((MARATHI_W + "\n") * 200_000, encoding="utf-8")
        with corpus.open("rb") as stdin, errors.open("wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "orthosyl.cli", "segment", "--unit", "char"],
                stdin=stdin, stdout=subprocess.PIPE, stderr=stderr,
            )
            assert len(proc.stdout.read(64)) == 64
            proc.stdout.close()
            status = proc.wait(timeout=60)
        assert status == 1
        assert errors.read_bytes() == b""

    @pytest.mark.parametrize("argv,option", [
        (["score", "--metric", "bleu", "--max-n", "0"], "--max-n"),
        (["score", "--metric", "lebleu", "--delta", "nan"], "--delta"),
        (["score", "--metric", "lebleu", "--delta", "1.5"], "--delta"),
        (["score", "--metric", "lebleu", "--delta", "0"], "--delta"),
        (["segment", "--unit", "char-ngram=1"], "--unit"),
        (["stats", "--unit", "bogus"], "--unit"),
        (["segment", "--unit", "os", "--script", "Foo"], "--script"),
        (["segment", "--unit", "os", "--script", "Unsupported"], "--script"),
        (["syllabify", "--script", "Foo"], "--script"),
        (["stats", "--unit", "os", "--script", "Foo"], "--script"),
        (["classify", "--script", "auto"], "--script"),
        (["classify", "--script", "Foo"], "--script"),
        (["split", "--sizes", "1,x,2"], "--sizes"),
        (["split", "--sizes", "1,-1,0"], "--sizes"),
        (["split", "--sizes", "1,2"], "--sizes"),
        (["segment", "--unit", "char", "--marker", " "], "--marker"),
        (["segment", "--unit", "char", "--marker", "\u3000"], "--marker"),
        (["segment", "--unit", "char", "--marker", "ab"], "--marker"),
        (["segment", "--unit", "char", "--marker", ""], "--marker"),
        (["segment", "--unit", "char", "--marker", "\u2126"], "--marker"),
        (["segment", "--unit", "char", "--marker", "▁", "--on-marker-collision", "replace"],
         "--marker"),
        (["desegment", "--marker", "ab"], "--marker"),
        (["desegment", "--marker", " "], "--marker"),
        (["nbest-rescore", "--nbest", "no-such-file", "--ref", "no-such-file", "--marker", "ab"],
         "--marker"),
        (["score", "--metric", "bleu", "--max-n", "100000000000000"], "--max-n"),
        (["segment", "--unit", "char-ngramxyz=2"], "--unit"),
        (["segment", "--unit", "char-ngrams=2"], "--unit"),
        # integers are ASCII digits: int() alone would read these
        (["score", "--metric", "bleu", "--max-n", "1_0"], "--max-n"),
        (["segment", "--unit", "char-ngram=\u0663"], "--unit"),
        (["split", "--sizes", "1_0,0,0"], "--sizes"),
        (["split", "--sizes", "\u0661,\u0660,\u0660"], "--sizes"),
        (["split", "--sizes", "1,0,0", "--seed", "1_0"], "--seed"),
        # and floats too: float() alone would read these as 0.6
        (["score", "--metric", "lebleu", "--delta", "0_6"], "--delta"),
        (["score", "--metric", "lebleu", "--delta", "\u0660.\u0666"], "--delta"),
    ])
    def test_out_of_range_option_exit_2(self, argv, option, tmp_path, capsys):
        # a usage error, raised before any input is read: the named files
        # do not exist and stdin is not UTF-8, and reading either would
        # exit 1 instead
        if argv[0] == "score":
            argv = argv + ["--hyp", "no-such-file", "--ref", "no-such-file"]
        if argv[0] == "split":
            argv = argv + ["--out-prefix", str(tmp_path / "piece")]
        with pytest.raises(SystemExit) as exc:
            run(argv, stdin=io.BytesIO(b"\xff"), stdout=io.StringIO())
        assert exc.value.code == 2
        assert f"argument {option}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,option,expected", [
        (["score", "--metric", "bleu", "--max-n", "0"], "--max-n", lambda: check_max_n(0)),
        (["score", "--metric", "lebleu", "--delta", "1.5"], "--delta", lambda: check_delta(1.5)),
        (["score", "--metric", "lebleu", "--delta", "nan"], "--delta",
         lambda: check_delta(float("nan"))),
        (["segment", "--unit", "char-ngram=1"], "--unit", lambda: UnitScheme.parse("char-ngram=1")),
        (["stats", "--unit", "bogus"], "--unit", lambda: UnitScheme.parse("bogus")),
        (["syllabify", "--script", "Foo"], "--script", lambda: ScriptId.parse("Foo")),
        (["classify", "--script", "Unsupported"], "--script",
         lambda: get_table(ScriptId.UNSUPPORTED)),
        (["split", "--sizes", "1,-1,0"], "--sizes", lambda: check_split_sizes((1, -1, 0))),
        (["split", "--sizes", "1,2"], "--sizes", lambda: check_split_sizes((1, 2))),
        (["desegment", "--marker", " "], "--marker", lambda: check_marker(" ")),
        (["segment", "--unit", "char", "--marker", "▁", "--on-marker-collision", "replace"],
         "--marker", lambda: check_marker("▁", "replace")),
        (["score", "--metric", "bleu", "--max-n", "x"], "--max-n", "invalid int value: 'x'"),
        (["score", "--metric", "lebleu", "--delta", "x"], "--delta", "invalid float value: 'x'"),
        (["segment", "--unit", "char-ngramxyz=2"], "--unit",
         lambda: UnitScheme.parse("char-ngramxyz=2")),
        (["score", "--metric", "bleu", "--max-n", "1_0"], "--max-n", "invalid int value: '1_0'"),
        (["split", "--sizes", "1,0,0", "--seed", "+9"], "--seed", "invalid int value: '+9'"),
        (["score", "--metric", "lebleu", "--delta", "0_6"], "--delta",
         "invalid float value: '0_6'"),
    ])
    def test_usage_error_states_the_library_check(self, argv, option, expected, tmp_path, capsys):
        # the message is the library's own, not a copy of its rule; values
        # that are not numbers keep argparse's wording
        if callable(expected):
            with pytest.raises(OrthosylError) as lib:
                expected()
            expected = str(lib.value)
        if argv[0] == "score":
            argv = argv + ["--hyp", "no-such-file", "--ref", "no-such-file"]
        if argv[0] == "split":
            argv = argv + ["--out-prefix", str(tmp_path / "piece")]
        with pytest.raises(SystemExit) as exc:
            run(argv, stdin=io.BytesIO(b"\xff"), stdout=io.StringIO())
        assert exc.value.code == 2
        assert f"argument {option}: {expected}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in _COMMANDS])
    def test_help_exit_0_on_stdout_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv, stdin=io.BytesIO(b"\xff"), stdout=io.StringIO())
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: orthosyl ")
        assert err == ""


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


class TestOneSubparser:
    """run builds only the named command's subparser; no output may tell."""

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_one_subparser_equals_its_full_build(self, name):
        full = _subparsers(build_parser())[name]
        only = _subparsers(build_parser(name))
        assert list(only) == [name]
        assert only[name].format_help() == full.format_help()
        assert list(_options(only[name])) == list(_options(full))

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"], stdin=io.BytesIO(b"\xff"), stdout=io.StringIO())
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == build_parser().format_help()
        for name, spec in _COMMANDS.items():
            assert re.search(rf"^    {re.escape(name)} +{re.escape(spec.help[:20])}", out, re.M)

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command\n"),
        (["nosuch"], "argument command: invalid choice: 'nosuch' (choose from "),
        (["--bogus"], "the following arguments are required: command\n"),
        # a known command builds one subparser, whose extra words the top level reports
        (["desegment", "extra"], "unrecognized arguments: extra\n"),
    ])
    def test_top_level_errors_print_the_full_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv, stdin=io.BytesIO(b"\xff"), stdout=io.StringIO())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(build_parser().format_usage() + "orthosyl: error: " + message)

    @pytest.mark.parametrize("argv,message", [
        (["score", "--metric", "bleu", "--delta", "0.5", "--hyp", "x", "--ref", "x"],
         "--delta applies to --metric lebleu only"),
        (["segment", "--unit", "char", "--marker", "\u2581", "--on-marker-collision", "replace"],
         "argument --marker: "),
    ])
    def test_cross_option_errors_print_the_subcommand_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv, stdin=io.BytesIO(b"\xff"), stdout=io.StringIO())
        assert exc.value.code == 2
        usage = _subparsers(build_parser())[argv[0]].format_usage()
        assert capsys.readouterr().err.startswith(f"{usage}orthosyl {argv[0]}: error: {message}")


# Lines as a file holds them, NFC: any code point but LF and the BOM that
# load_corpus strips, with the whitespace that str.split() splits at
file_lines_st = st.text(
    alphabet=st.one_of(
        st.sampled_from(" \t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\ufeff"),
    )
).map(lambda s: unicodedata.normalize("NFC", s))


@settings(max_examples=200, deadline=None)
@given(
    st.characters(blacklist_categories=("Cs",)),
    file_lines_st,
    st.sampled_from(["char", "char-ngram=3", "os"]),
)
@example(" ", "ab cd", "char")
@example("\u2126", "ab cd", "char")
@example("\x85", "ab cd", "char")
def test_round_trip_over_markers(marker, line, unit):
    """segment | desegment maps a marker-free line to its words joined by one space,
    for every marker that segment accepts."""
    assume(marker not in line)
    try:
        status, segmented = invoke(["segment", "--unit", unit, f"--marker={marker}"], line + "\n")
    except SystemExit as exc:
        assert exc.code == 2
        return
    assume(status == 0)  # a word no scheme segments (a mixed-script word under os)
    status, restored = invoke(["desegment", f"--marker={marker}"], segmented)
    assert status == 0
    assert restored == " ".join(line.split()) + "\n"


def _per_line_error(case, tmp_path, capsys, extra=()):
    _, stdin_text, _, lineno = PER_LINE_ERRORS[case]
    status, out = invoke(per_line_argv(case, tmp_path) + list(extra), stdin_text)
    return status, out, capsys.readouterr().err, lineno


@pytest.mark.parametrize("case", PER_LINE_ERRORS)
def test_per_line_error_names_its_line_once(case, tmp_path, capsys):
    status, out, err, lineno = _per_line_error(case, tmp_path, capsys)
    command = PER_LINE_ERRORS[case][0][0]
    # an error in a file read by path names the file: a lexicon line is not
    # read as stdin's, nor an n-best line as the reference's
    named = {"lexicon": "lex", "nbest": "nbest", "rescore": "nbest"}
    source = named.get(case.split()[0])
    where = f"{tmp_path / source}: " if source else ""
    assert status == 1
    assert out.count("\n") < lineno  # line-streaming commands write the lines before it
    assert err.startswith(f"orthosyl {command}: error: {where}line {lineno}: ")
    assert err.endswith("\n")
    assert err.count("\n") == 1
    assert re.findall(r"line \d+: ", err) == [f"line {lineno}: "], err


def test_skip_errors_reports_the_same_line_and_passes_it_through(tmp_path, capsys):
    _, _, failed, lineno = _per_line_error("segment", tmp_path, capsys)
    status, out, err, _ = _per_line_error("segment", tmp_path, capsys, ["--skip-errors"])
    assert status == 0
    assert out == "o k\nbad_word\n"
    assert err == failed.removeprefix("orthosyl segment: error: ")
    assert re.findall(r"line \d+: ", err) == [f"line {lineno}: "]


@pytest.mark.parametrize("argv,short,message", [
    (["lcsr", "--a", "{long}", "--b", "{short}"], "b",
     "a, b are not aligned: 3 lines vs 2 lines"),
    (["correlate", "--src", "{long}", "--tgt", "{long}", "--hyp", "{short}", "--ref", "{long}"],
     "hyp", "src, tgt, hyp, ref are not aligned: 3 lines vs 3 lines vs 2 lines vs 3 lines"),
    (["score", "--metric", "bleu", "--hyp", "{short}", "--ref", "{long}"], "hyp",
     "hyp, ref are not aligned: 2 lines vs 3 lines"),
    (["score", "--metric", "lebleu", "--hyp", "{long}", "--ref", "{short}"], "ref",
     "hyp, ref are not aligned: 3 lines vs 2 lines"),
])
def test_misaligned_files_name_every_input_and_count(argv, short, message, tmp_path, capsys):
    paths = write_files(tmp_path, long="a b\nc d\ne f\n", short="a b\nc d\n")
    status, out = invoke([arg.format(**paths) for arg in argv])
    assert status == 1
    assert out == ""
    assert capsys.readouterr().err == f"orthosyl {argv[0]}: error: {message}\n"


@settings(max_examples=100, deadline=None)
@given(file_lines_st)
def test_word_scheme_prints_the_sentence_with_whitespace_normalized(line):
    # the word scheme has no markers to desegment: its output is the sentence
    assume("_" not in line)
    status, out = invoke(["segment", "--unit", "word"], line + "\n")
    assert status == 0
    assert out == " ".join(line.split()) + "\n"
