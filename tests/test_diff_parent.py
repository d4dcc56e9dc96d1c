"""tools/diff_parent.py: a copy equals itself in every layer, a changed
table entry, a changed rule and a changed output format each show in their
own layer, and the words it draws hold every class letter."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

from orthosyl import scripts

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("diff_parent", ROOT / "tools" / "diff_parent.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

# one seed of each workload at a twentieth of its size
SMALL = {"count": 2000, "seeds": (101,), "scale": 0.05}


def mutant(tmp_path, module, old, new):
    """A copy of the package with `old` replaced by `new` in `module`."""
    shutil.copytree(ROOT / "src" / "orthosyl", tmp_path / "orthosyl",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "orthosyl" / module
    source = path.read_text(encoding="utf-8")
    assert old in source
    path.write_text(source.replace(old, new), encoding="utf-8")
    return tmp_path


def table_chars(table) -> int:
    """How many code points the tables layer checks in one table: its block,
    ZWJ, ZWNJ and the class letters that lie outside the block."""
    block = set(map(chr, range(table.block_start, table.block_end + 1)))
    return len(block | {"\u200c", "\u200d"} | set(scripts._CLASS_OF_LETTER))


def test_the_repository_equals_itself(capsys):
    assert tool.diff(ROOT / "src", ROOT / "src", 2000, seeds=()) == {
        "tables": 0, "library": 0, "cli": 0}
    checked = sum(map(table_chars, scripts.TABLES.values()))
    cases = len(tool.cli_cases.PER_LINE_ERRORS)
    assert capsys.readouterr().out.splitlines() == [
        f"diff_parent tables: 11 scripts, {checked} code points compared, 0 mismatches",
        "diff_parent library: 2000 words, 8000 calls compared, 0 mismatches",
        f"diff_parent cli: 2 workloads x 0 seeds and {cases} per-line error cases, "
        f"{cases} runs compared, 0 mismatches",
    ]


def test_the_cli_layer_of_the_repository_equals_itself(capsys):
    assert tool.diff(ROOT / "src", ROOT / "src", **SMALL) == {
        "tables": 0, "library": 0, "cli": 0}
    cases = len(tool.cli_cases.PER_LINE_ERRORS)
    commands = 1 + len(tool.COMMANDS) + len(tool.EXTRA_COMMANDS)  # n-best variants first
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"diff_parent cli: 2 workloads x 1 seeds and {cases} per-line error cases, "
        f"{2 * commands + cases} runs compared, 0 mismatches"
    )


def test_a_changed_hand_kept_class_is_reported_by_the_tables_layer(tmp_path, capsys):
    # Gurmukhi's tippi becomes a chandrabindu instead of an anusvara
    change = mutant(tmp_path, "scripts.py", '0x0A70: "A",', '0x0A70: "B",')
    assert tool.diff(ROOT / "src", change, 0, seeds=())["tables"] == 1
    out = capsys.readouterr().out
    assert ("MISMATCH tables GURMUKHI U+0A70: parent ('Anusvara', False), "
            "change ('Chandrabindu', False)") in out.splitlines()
    assert re.search(r"^diff_parent tables: 11 scripts, \d+ code points compared, "
                     r"1 mismatches$", out, re.M)


def test_a_changed_nasal_rule_is_reported(tmp_path, capsys):
    # the anusvara no longer looks ahead for a plosive, in every pattern that has it
    source = (ROOT / "src" / "orthosyl" / "syllabify.py").read_text(encoding="utf-8")
    assert source.count("(?:[AB](?!P))?") >= 2
    change = mutant(tmp_path, "syllabify.py", "(?:[AB](?!P))?", "[AB]?")
    assert tool.diff(ROOT / "src", change, 2000, seeds=())["library"] > 0
    out = capsys.readouterr().out
    tables, first_mismatch = out.splitlines()[:2]
    assert re.fullmatch(r"diff_parent tables: .* 0 mismatches", tables)
    assert first_mismatch.startswith("MISMATCH library ")
    assert re.search(r"^diff_parent library: .* [1-9]\d* mismatches$", out, re.M)


def test_a_changed_output_format_is_reported_by_the_cli_layer_alone(tmp_path, capsys):
    # stats prints its mean unit length to three places
    change = mutant(tmp_path, "corpus.py", "{self.mean_unit_length:.4f}",
                    "{self.mean_unit_length:.3f}")
    found = tool.diff(ROOT / "src", change, **SMALL)
    assert found["tables"] == found["library"] == 0
    assert found["cli"] > 0
    out = capsys.readouterr().out
    assert re.search(r"^MISMATCH cli hindi 101 stats: stdout line 1: parent 'os\\t", out, re.M)
    assert "MISMATCH library" not in out


def test_a_missing_package_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no orthosyl package"):
        tool.main([str(ROOT / "src"), str(tmp_path)])


def test_words_hold_every_class_letter():
    drawn = set("".join(word for word, _ in tool.words(2000, scripts)))
    assert len(scripts._CLASS_OF_LETTER) == 12
    assert set(scripts._CLASS_OF_LETTER) <= drawn
