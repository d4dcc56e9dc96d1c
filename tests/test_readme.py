"""The README's Library example runs, and each result it shows is the one
the library returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's Library section has no python block"
    return match.group(1)


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
