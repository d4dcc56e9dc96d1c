"""Side-by-side diff of two orthosyl copies' syllabifiers over seeded words.

Usage (from the repository root):

    python3 tools/diff_syllabify.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that each hold an `orthosyl`
package (a checkout's `src/`). Both are copied to a temporary directory
as `orthosyl_parent` and `orthosyl_change` and imported in this one
process. Each of 300,000 words, drawn with the fixed seed `SEED`, goes
to both copies'

- `syllabify(word)`, the script detected;
- `syllabify_indic` or `syllabify_alpha`, forced to the script the word
  was drawn from, and to one more script drawn at random;
- `segment_word(word, UnitScheme.ortho_syllable())`.

Words are drawn from the `tests/textgen.py` alphabets, from every
supported script's whole block, with ZWJ / ZWNJ, the ASCII class letters
and arbitrary code points mixed in; a few are empty. The units' texts and
kinds are compared, and for a call that raises, the error's type and
message. The first mismatches are printed; the exit status is 1 if there
was any, else 0.
"""

from __future__ import annotations

import argparse
import importlib
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import textgen  # noqa: E402

SIDES = ("parent", "change")
SEED = 1
WORDS = 300_000
SHOWN = 10


def load(src: Path, side: str, into: Path):
    """Import the `orthosyl` package under `src` as `orthosyl_<side>`."""
    package = src / "orthosyl"
    if not (package / "__init__.py").is_file():
        sys.exit(f"diff_syllabify: no orthosyl package in {src}")
    name = f"orthosyl_{side}"
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("scripts", "syllabify", "segment")}


def words(count: int, scripts_module):
    """(word, the name of the script it was drawn from) pairs, drawn from
    the blocks and class letters of `scripts_module` (an orthosyl.scripts)."""
    blocks = {script.name: "".join(map(chr, range(table.block_start, table.block_end + 1)))
              for script, table in scripts_module.TABLES.items()}
    class_letters = "".join(scripts_module._CLASS_OF_LETTER)
    rng = random.Random(SEED)
    alphabets = [(family.upper(), letters) for family, letters in textgen.ALPHABETS.items()]
    scripts = sorted(blocks)
    for _ in range(count):
        if rng.random() < 0.001:
            yield "", rng.choice(scripts)
            continue
        if rng.random() < 0.7:
            home, alphabet = rng.choice(alphabets)
        else:
            home = rng.choice(scripts)
            alphabet = blocks[home]
        chars = []
        for _ in range(rng.randint(1, 10)):
            roll = rng.random()
            if roll < 0.85:
                chars.append(rng.choice(alphabet))
            elif roll < 0.9:
                chars.append(rng.choice("\u200c\u200d"))
            elif roll < 0.94:
                chars.append(rng.choice(class_letters))
            else:
                cp = rng.randrange(0x110000)
                chars.append(chr(cp) if not 0xD800 <= cp <= 0xDFFF else "?")
        yield "".join(chars), home


def outcome(fn, *args):
    """A call's units as (text, kind name) pairs, or its error's type and message."""
    try:
        return [unit if isinstance(unit, str) else (unit.text, unit.kind.value)
                for unit in fn(*args)]
    except Exception as exc:  # compare every error, programming errors too
        return type(exc).__name__, str(exc)


def calls(mods, word: str, home: str, other: str):
    """The compared calls on one word: (label, outcome) pairs."""
    syl, scripts, seg = mods["syllabify"], mods["scripts"], mods["segment"]
    out = [("syllabify", outcome(syl.syllabify, word))]
    for name in (home, other):
        script = scripts.ScriptId[name]
        fn = syl.syllabify_indic if script.is_abugida else syl.syllabify_alpha
        out.append((f"{fn.__name__}[{name}]", outcome(fn, word, script)))
    out.append(("segment_word", outcome(seg.segment_word, word, seg.UnitScheme.ortho_syllable())))
    return out


def diff(parent: Path, change: Path, count: int = WORDS) -> int:
    """Compare the two copies on `count` words, print the first mismatches
    and a summary line, and return the number of mismatches."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            mods = {side: load(src, side, Path(tmp))
                    for side, src in zip(SIDES, (parent, change))}
            compared, mismatches = compare(mods, count)
        finally:
            sys.path.remove(tmp)
            packages = {f"orthosyl_{side}" for side in SIDES}
            for name in [name for name in sys.modules if name.partition(".")[0] in packages]:
                del sys.modules[name]
    print(f"diff_syllabify: {count} words, {compared} calls compared, {mismatches} mismatches")
    return mismatches


def compare(mods, count: int) -> tuple[int, int]:
    """(calls compared, mismatches) over `count` seeded words."""
    scripts_module = mods["parent"]["scripts"]
    scripts = sorted(script.name for script in scripts_module.TABLES)
    rng = random.Random(SEED + 1)
    compared = mismatches = 0
    for word, home in words(count, scripts_module):
        other = rng.choice(scripts)
        parent, change = (calls(mods[side], word, home, other) for side in SIDES)
        for (label, want), (_, got) in zip(parent, change):
            compared += 1
            if want != got:
                mismatches += 1
                if mismatches <= SHOWN:
                    print(f"MISMATCH {label} {word!r}: parent {want!r}, change {got!r}")
    return compared, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory holding the parent's orthosyl")
    parser.add_argument("change", type=Path, help="directory holding the change's orthosyl")
    args = parser.parse_args(argv)
    return 1 if diff(args.parent, args.change) else 0


if __name__ == "__main__":
    sys.exit(main())
