"""Side-by-side diff of two orthosyl copies, as a library and as a command.

Usage (from the repository root):

    python3 tools/diff_parent.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that each hold an `orthosyl`
package (a checkout's `src/`; `git archive COMMIT | tar -x -C DIR` makes
one of a commit in DIR). Both are copied to a temporary directory as
`orthosyl_parent` and `orthosyl_change` and imported in this one process.
Three layers are compared.

tables: for every supported script of either copy, each code point of the
script's block, ZWJ, ZWNJ and the class letters go to both copies'
`TABLES[script].classify(ch).value` and `TABLES[script].is_plosive(ch)`.

library: each of 300,000 words, drawn with the fixed seed `SEED`, goes to
both copies'

- `syllabify(word)`, the script detected;
- `syllabify_indic` or `syllabify_alpha`, forced to the script the word
  was drawn from, and to one more script drawn at random;
- `segment_word(word, UnitScheme.ortho_syllable())`.

Words are drawn from the `tests/textgen.py` alphabets, from every
supported script's whole block, with ZWJ / ZWNJ, the ASCII class letters
and arbitrary code points mixed in; a few are empty. The units' texts and
kinds are compared, and for a call that raises, the error's type and
message.

cli: for each workload of `perfbench/workloads.py` and each seed of
`SEEDS`, the workload's files are written once, and both copies'
`cli.run` runs the benchmark's commands (`COMMANDS` of
`perfbench/run.py`) and `EXTRA_COMMANDS` on them. Where a command reads
another's output (`desegment` reads `segment`'s), it reads the parent's,
and the n-best list is built from the parent's segmentation of the n-best
variants (which is compared too), so both sides always read the same
input. Then both run each case of `PER_LINE_ERRORS` in
`tests/cli_cases.py`. Each run's exit status, stdout and stderr are
compared.

Each layer prints its first `SHOWN` mismatches and a summary line. The
exit status is 1 if there was any mismatch, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import random
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
import cli_cases  # noqa: E402
import textgen  # noqa: E402
import workloads  # noqa: E402
from run import COMMANDS  # noqa: E402

SIDES = ("parent", "change")
MODULES = ("scripts", "syllabify", "segment", "cli")
SEED = 1
WORDS = 300_000
SEEDS = range(101, 111)
# run on each workload beside the benchmark's commands: name, argv, stdin file
EXTRA_COMMANDS = (
    ("syllabify", ["syllabify"], "corpus"),
    ("classify", ["classify", "--script", "Devanagari"], "corpus"),
)
SHOWN = 10


def load(src: Path, side: str, into: Path) -> dict:
    """Import the `orthosyl` package under `src` as `orthosyl_<side>`; its MODULES by name."""
    package = src / "orthosyl"
    if not (package / "__init__.py").is_file():
        sys.exit(f"diff_parent: no orthosyl package in {src}")
    name = f"orthosyl_{side}"
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in MODULES}


def outcome(fn, *args):
    """A call's result, the status it exits with, or its error's type and message."""
    try:
        return fn(*args)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code
    except Exception as exc:  # compare every error, programming errors too
        return type(exc).__name__, str(exc)


class Run(NamedTuple):
    """What one command run gave."""

    status: object  # the exit status, or an uncaught error's outcome
    stdout: str
    stderr: str


def difference(parent, change) -> str:
    """How two outcomes differ: a run by each differing part, a text at its
    first differing line, anything else whole."""
    if isinstance(parent, Run):
        return "; ".join(f"{field} {difference(a, b)}"
                         for field, a, b in zip(Run._fields, parent, change) if a != b)
    if isinstance(parent, str) and isinstance(change, str):
        pairs = enumerate(itertools.zip_longest(parent.split("\n"), change.split("\n")), 1)
        lineno, (a, b) = next((n, pair) for n, pair in pairs if pair[0] != pair[1])
        return f"line {lineno}: parent {a!r}, change {b!r}"
    return f"parent {parent!r}, change {change!r}"


class Layer:
    """One layer's count of outcomes compared and mismatches; it prints the first SHOWN."""

    def __init__(self, name: str):
        self.name = name
        self.compared = self.mismatches = 0

    def compare(self, label: str, parent, change) -> None:
        self.compared += 1
        if parent != change:
            self.mismatches += 1
            if self.mismatches <= SHOWN:
                print(f"MISMATCH {self.name} {label}: {difference(parent, change)}")

    def summary(self, scope: str, unit: str) -> int:
        """Print the layer's summary line; return its mismatches."""
        print(f"diff_parent {self.name}: {scope}, {self.compared} {unit} compared, "
              f"{self.mismatches} mismatches")
        return self.mismatches


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


def units(fn):
    """fn with its units as (text, kind name) pairs: the two copies' kinds never compare equal."""
    return lambda *args: [unit if isinstance(unit, str) else (unit.text, unit.kind.value)
                          for unit in fn(*args)]


def calls(mods, word: str, home: str, other: str):
    """The compared calls on one word: (label, outcome) pairs."""
    syl, scripts, seg = mods["syllabify"], mods["scripts"], mods["segment"]
    out = [("syllabify", outcome(units(syl.syllabify), word))]
    for name in (home, other):
        script = scripts.ScriptId[name]
        fn = syl.syllabify_indic if script.is_abugida else syl.syllabify_alpha
        out.append((f"{fn.__name__}[{name}]", outcome(units(fn), word, script)))
    out.append(("segment_word",
                outcome(units(seg.segment_word), word, seg.UnitScheme.ortho_syllable())))
    return out


def table_entry(scripts_module, name: str, ch: str):
    """The class and the plosive flag of `ch` in the table of script `name`."""
    table = scripts_module.TABLES[scripts_module.ScriptId[name]]
    return table.classify(ch).value, table.is_plosive(ch)


def tables_layer(mods) -> int:
    """Compare the tables of every script either copy supports; return the mismatches."""
    layer = Layer("tables")
    modules = [mods[side]["scripts"] for side in SIDES]
    names = sorted({script.name for module in modules for script in module.TABLES})
    for name in names:
        chars = {"\u200c", "\u200d"}
        for module in modules:
            chars.update(module._CLASS_OF_LETTER)
            for script, table in module.TABLES.items():
                if script.name == name:
                    chars.update(map(chr, range(table.block_start, table.block_end + 1)))
        for ch in sorted(chars):
            parent, change = (outcome(table_entry, module, name, ch) for module in modules)
            layer.compare(f"{name} U+{ord(ch):04X}", parent, change)
    return layer.summary(f"{len(names)} scripts", "code points")


def library_layer(mods, count: int) -> int:
    """Compare the library calls on `count` seeded words; return the mismatches."""
    layer = Layer("library")
    scripts_module = mods["parent"]["scripts"]
    scripts = sorted(script.name for script in scripts_module.TABLES)
    rng = random.Random(SEED + 1)
    for word, home in words(count, scripts_module):
        other = rng.choice(scripts)
        parent, change = (calls(mods[side], word, home, other) for side in SIDES)
        for (label, want), (_, got) in zip(parent, change):
            layer.compare(f"{label} {word!r}", want, got)
    return layer.summary(f"{count} words", "calls")


def run_cli(cli, argv: list[str], stdin: bytes) -> Run:
    """One `cli.run(argv)` on `stdin`, with what it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = outcome(cli.run, argv, io.BytesIO(stdin), out)
    return Run(status, out.getvalue(), err.getvalue())


def run_both(clis, layer: Layer, label: str, argv: list[str], stdin: bytes) -> Run:
    """Run argv on both copies and compare the runs; return the parent's."""
    parent, change = (run_cli(clis[side], argv, stdin) for side in SIDES)
    layer.compare(label, parent, change)
    return parent


def lines_text(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def cli_layer(clis, seeds, scale: float) -> int:
    """Compare the commands on each workload and seed, then the per-line
    error cases; return the mismatches."""
    layer = Layer("cli")
    segment_argv = next(argv for name, argv, _ in COMMANDS if name == "segment")
    for name, seed in itertools.product(workloads.WORKLOADS, seeds):
        wl = workloads.build(name, seed, scale)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for key, lines in wl.files.items():
                (tmp / key).write_text(lines_text(lines), encoding="utf-8")
            variants = lines_text([variant for _, variant, _ in wl.nbest_variants])
            segmented = run_both(clis, layer, f"{name} {seed} n-best variants segment",
                                 segment_argv, variants.encode("utf-8"))
            nbest = workloads.nbest_lines(wl, segmented.stdout.splitlines())
            (tmp / "nbest").write_text(lines_text(nbest), encoding="utf-8")
            for command, argv, stdin in COMMANDS + EXTRA_COMMANDS:
                argv = [str(tmp / arg[1:]) if arg.startswith("@") else arg for arg in argv]
                parent = run_both(clis, layer, f"{name} {seed} {command}", argv,
                                  (tmp / stdin).read_bytes() if stdin else b"")
                # a later command may read it (desegment reads segment.out)
                (tmp / f"{command}.out").write_text(parent.stdout, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for k, (case, (_, stdin, _, _)) in enumerate(cli_cases.PER_LINE_ERRORS.items()):
            directory = Path(tmp, str(k))
            directory.mkdir()
            run_both(clis, layer, f"per-line error {case!r}",
                     cli_cases.per_line_argv(case, directory), stdin.encode("utf-8"))
    return layer.summary(f"{len(workloads.WORKLOADS)} workloads x {len(seeds)} seeds "
                         f"and {len(cli_cases.PER_LINE_ERRORS)} per-line error cases", "runs")


def diff(parent: Path, change: Path, count: int = WORDS, seeds=SEEDS,
         scale: float = 1.0) -> dict[str, int]:
    """Compare the two copies' tables, their library on `count` words and
    their CLI on `seeds` of each workload at `scale`; print each layer's
    first mismatches and summary line, and return the mismatches by layer."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            mods = {side: load(src, side, Path(tmp))
                    for side, src in zip(SIDES, (parent, change))}
            return {"tables": tables_layer(mods),
                    "library": library_layer(mods, count),
                    "cli": cli_layer({side: mods[side]["cli"] for side in SIDES}, seeds, scale)}
        finally:
            sys.path.remove(tmp)
            packages = {f"orthosyl_{side}" for side in SIDES}
            for name in [name for name in sys.modules if name.partition(".")[0] in packages]:
                del sys.modules[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory holding the parent's orthosyl")
    parser.add_argument("change", type=Path, help="directory holding the change's orthosyl")
    args = parser.parse_args(argv)
    return 1 if any(diff(args.parent, args.change).values()) else 0


if __name__ == "__main__":
    sys.exit(main())
