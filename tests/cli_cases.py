"""Command-line cases shared by tests/test_cli.py and tools/diff_parent.py.

A plain module, with no pytest or hypothesis, so that the tool imports it
as it is.
"""

from pathlib import Path


def write_files(directory: Path, **texts: str) -> dict[str, str]:
    """Write each text to directory/NAME and return the paths by name."""
    paths = {}
    for name, text in texts.items():
        paths[name] = directory / name
        paths[name].write_text(text, encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


# (argv, stdin, files, N): argv names files as {NAME}; line N of the input
# that the error comes from is the one the message must name.
PER_LINE_ERRORS = {
    "segment": (["segment", "--unit", "char"], "ok\nbad_word\n", {}, 2),
    "desegment": (["desegment"], "a _ b\na _ _ b\n", {}, 2),
    "syllabify": (["syllabify"], "ok\nघरmix\n", {}, 2),
    "stats": (["stats", "--unit", "os"], "ok\nFacebookपर\n", {}, 2),
    "lexicon missing TAB": (["segment", "--unit", "morph", "--morph-lexicon", "{lex}"], "x\n",
                            {"lex": "ab\ta b\n\nabc\n"}, 3),
    "lexicon segments": (["segment", "--unit", "morph", "--morph-lexicon", "{lex}"], "x\n",
                         {"lex": "ab\ta b\nabc\ta c\n"}, 2),
    "nbest fields": (["nbest-rescore", "--nbest", "{nbest}", "--ref", "{ref}"], "",
                     {"nbest": "0 ||| a ||| f ||| 1\n0 ||| a ||| f\n", "ref": "a\n"}, 2),
    "nbest extra field": (["nbest-rescore", "--nbest", "{nbest}", "--ref", "{ref}"], "",
                          {"nbest": "0 ||| a ||| f ||| 1\n0 ||| a ||| f ||| 1 ||| extra\n",
                           "ref": "a\n"}, 2),
    "nbest number": (["nbest-rescore", "--nbest", "{nbest}", "--ref", "{ref}"], "",
                     {"nbest": "0 ||| a ||| f ||| 1\n\n0 ||| a ||| f ||| x\n", "ref": "a\n"}, 3),
    "nbest id": (["nbest-rescore", "--nbest", "{nbest}", "--ref", "{ref}"], "",
                 {"nbest": "0 ||| a ||| f ||| 1\n1_0 ||| a ||| f ||| 1\n", "ref": "a\n" * 11}, 2),
    "nbest order": (["nbest-rescore", "--nbest", "{nbest}", "--ref", "{ref}"], "",
                    {"nbest": "1 ||| a ||| f ||| 1\n0 ||| a ||| f ||| 1\n", "ref": "a\nb\n"}, 2),
    "rescore reference": (["nbest-rescore", "--nbest", "{nbest}", "--ref", "{ref}"], "",
                          {"nbest": "0 ||| a ||| f ||| 1\n\n1 ||| a ||| f ||| 1\n", "ref": "a\n"}, 3),
    "rescore markers": (["nbest-rescore", "--nbest", "{nbest}", "--ref", "{ref}"], "",
                        {"nbest": "0 ||| a ||| f ||| 1\n0 ||| a _ _ b ||| f ||| 1\n",
                         "ref": "a\n"}, 2),
}


def per_line_argv(case: str, directory: Path) -> list[str]:
    """The argv of PER_LINE_ERRORS[case], its files written under directory."""
    argv, _, texts, _ = PER_LINE_ERRORS[case]
    paths = write_files(directory, **texts)
    return [arg.format(**paths) for arg in argv]
