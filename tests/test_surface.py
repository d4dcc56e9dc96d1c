"""The public surface as a checked file.

`surface()` lists what callers rely on: every name in `orthosyl.__all__`
and `orthosyl.metrics.__all__` with its signature or its class kind and
fields, every `OrthosylError` subclass with its base class, and each CLI
subcommand's options as `build_parser()` defines them. The test compares
that listing with tests/data/surface.txt. A change to the surface on
purpose rewrites the file, from the repository root:

    PYTHONPATH=src python3 tests/test_surface.py
"""

import argparse
import dataclasses
import difflib
import enum
import inspect
from pathlib import Path

import orthosyl
from orthosyl import errors, metrics
from orthosyl.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "data" / "surface.txt"


def _class_entry(cls) -> str:
    if issubclass(cls, enum.Enum):
        return "enum " + ", ".join(f"{m.name}={m.value!r}" for m in cls)
    if issubclass(cls, BaseException):
        return f"exception({cls.__base__.__name__})"
    fields = ()
    if dataclasses.is_dataclass(cls):
        kind, fields = "dataclass", [f.name for f in dataclasses.fields(cls)]
        signature = str(inspect.signature(cls))
    elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
        # NamedTuple keeps string annotations as ForwardRef: show the string
        kind, fields = "namedtuple", cls._fields
        annotations = {name: getattr(ann, "__forward_arg__", ann)
                       for name, ann in cls.__annotations__.items()}
        signature = "(" + ", ".join(f"{name}: {annotations[name]!r}" for name in fields) + ")"
    else:
        kind, signature = "class", str(inspect.signature(cls))
    members = sorted(name for name in vars(cls) if not name.startswith("_") and name not in fields)
    return f"{kind}{signature}" + (f" members: {', '.join(members)}" if members else "")


def _entry(obj) -> str:
    if inspect.isclass(obj):
        return _class_entry(obj)
    if callable(obj):
        return f"function{inspect.signature(obj)}"
    return f"{type(obj).__name__} {obj!r}"


def _options(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flags = ",".join(action.option_strings) or action.dest
        kind = type(action).__name__.strip("_")
        type_name = getattr(action.type, "__name__", None)
        yield (f"{flags} {kind} type={type_name} choices={action.choices!r} "
               f"default={action.default!r} required={action.required}")


def surface() -> str:
    """The listing, one line per entry."""
    lines = []
    for prefix, module in (("orthosyl", orthosyl), ("orthosyl.metrics", metrics)):
        for name in sorted(module.__all__):
            lines.append(f"{prefix}.{name}: {_entry(getattr(module, name))}")
    for name, obj in sorted(vars(errors).items()):
        if inspect.isclass(obj) and issubclass(obj, errors.OrthosylError):
            lines.append(f"error {name}({obj.__base__.__name__})")
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        lines.extend(f"cli {command} {option}" for option in _options(parser))
    return "\n".join(lines) + "\n"


def test_surface_matches_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8")
    got = surface()
    diff = "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        str(GOLDEN.name), "surface()"))
    assert not diff, f"the public surface changed:\n{diff}"


if __name__ == "__main__":
    GOLDEN.write_text(surface(), encoding="utf-8")
