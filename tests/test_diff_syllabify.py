"""tools/diff_syllabify.py: a copy equals itself, a changed rule shows, and
the words it draws hold every class letter."""

import importlib.util
import shutil
from pathlib import Path

import pytest

from orthosyl import scripts

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "diff_syllabify", ROOT / "tools" / "diff_syllabify.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_the_repository_equals_itself(capsys):
    assert tool.diff(ROOT / "src", ROOT / "src", 2000) == 0
    assert capsys.readouterr().out.splitlines() == [
        "diff_syllabify: 2000 words, 8000 calls compared, 0 mismatches"
    ]


def test_a_changed_nasal_rule_is_reported(tmp_path, capsys):
    # the anusvara no longer looks ahead for a plosive
    shutil.copytree(ROOT / "src" / "orthosyl", tmp_path / "orthosyl",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "orthosyl" / "syllabify.py"
    source = path.read_text(encoding="utf-8")
    assert source.count("(?:[AB](?!P))?") >= 2
    path.write_text(source.replace("(?:[AB](?!P))?", "[AB]?"), encoding="utf-8")
    assert tool.diff(ROOT / "src", tmp_path, 2000) > 0
    out = capsys.readouterr().out
    assert out.startswith("MISMATCH ")
    assert not out.splitlines()[-1].endswith(" 0 mismatches")


def test_a_missing_package_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no orthosyl package"):
        tool.main([str(ROOT / "src"), str(tmp_path)])


def test_words_hold_every_class_letter():
    drawn = set("".join(word for word, _ in tool.words(2000, scripts)))
    assert len(scripts._CLASS_OF_LETTER) == 12
    assert set(scripts._CLASS_OF_LETTER) <= drawn
