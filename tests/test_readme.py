"""The README's examples run, and each result they show is the one the
library or the CLI returns."""

import ast
import io
import re
import shlex
from pathlib import Path

from orthosyl.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(section: str, language: str) -> str:
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", body, re.S)
    assert match, f"README's {section} section has no {language} block"
    return match.group(1)


def library_block() -> str:
    return code_block("Library", "python")


def test_library_example_shows_what_it_returns():
    source = library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        # ast column offsets count UTF-8 bytes
        line = lines[stmt.end_lineno - 1].encode()
        rest = line[stmt.end_col_offset:].decode().strip()
        if not rest:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert rest.startswith("# ") and isinstance(stmt, ast.Expr), rest
        code = ast.get_source_segment(source, stmt)
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert repr(got) == rest[2:], f"{code} returns {got!r}, README shows {rest[2:]}"
        checked += 1
    assert checked >= 4


def test_cli_examples_print_what_they_show():
    # an `echo TEXT | orthosyl ARGS` line followed directly by a `# OUTPUT`
    # line is run in process; its standard output must be that line
    lines = code_block("CLI", "sh").splitlines()
    checked = 0
    for line, shown in zip(lines, lines[1:]):
        words = shlex.split(line, comments=True)
        if not (words[:1] == ["echo"] and shown.startswith("# ") and "|" in words):
            continue
        bar = words.index("|")
        assert words[bar + 1] == "orthosyl" and "|" not in words[bar + 1:], line
        stdin = io.BytesIO((" ".join(words[1:bar]) + "\n").encode())
        out = io.StringIO()
        assert run(words[bar + 2:], stdin=stdin, stdout=out) == 0, line
        assert out.getvalue() == shown[2:] + "\n", f"{line} prints {out.getvalue()!r}"
        checked += 1
    assert checked >= 2
