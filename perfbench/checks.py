"""Reference implementations and output checks of the benchmark.

The oracles are deliberately the plain textbook loops, independent of the
program's code, so a kernel or metric that drifts from them shows up as a
failed check.
"""

from __future__ import annotations

import math
from collections import Counter


def lcs_oracle(a: str, b: str) -> int:
    """LCS length by the plain O(m*n) dynamic programme."""
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b):
            cur.append(prev[j] + 1 if ca == cb else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def lcsr_oracle(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return lcs_oracle(a, b) / max(len(a), len(b))


def pearson_oracle(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def bleu_oracle(hyps: list[str], refs: list[str], max_n: int = 4) -> float:
    """Corpus BLEU (%) with clipped counts and the brevity penalty."""
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp_line, ref_line in zip(hyps, refs):
        hyp, ref = hyp_line.split(), ref_line.split()
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            h = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            r = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            total[n - 1] += sum(h.values())
            matched[n - 1] += sum(min(c, r[g]) for g, c in h.items())
    if not all(total) or not all(matched):
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    log_p = sum(math.log(m / t) for m, t in zip(matched, total)) / max_n
    return 100.0 * bp * math.exp(log_p)


def read_report(text: str) -> dict[str, str]:
    """Key-value lines of a `score --report` file."""
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def labelled_value(text: str, label: str) -> float:
    """The number in a one-line "LABEL = value" output."""
    head, _, value = text.strip().partition(" = ")
    if head != label:
        raise ValueError(f"expected '{label} = ...', got {text.strip()!r}")
    return float(value)


class Checks:
    """Named pass/fail results; failures keep a short reason."""

    def __init__(self):
        self.results: list[dict] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": "" if ok else detail})

    def run(self, name: str, fn) -> None:
        """Record fn()'s (ok, detail); a parse error counts as a failure."""
        try:
            ok, detail = fn()
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, ok, detail)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def check_segment(corpus: list[str], segmented: str, desegmented: str):
    """segment keeps the line count and desegment restores the input exactly."""
    seg_lines = segmented.splitlines()
    if len(seg_lines) != len(corpus):
        return False, f"segment wrote {len(seg_lines)} lines for {len(corpus)}"
    expected = "".join(f"{line}\n" for line in corpus)
    if desegmented != expected:
        bad = next((i for i, (x, y) in enumerate(
            zip(desegmented.splitlines(), corpus)) if x != y), None)
        return False, f"desegment differs from the input (first at line {bad})"
    return True, ""


def check_stats(segmented: str, stats_out: str, marker: str = "_"):
    """stats counts the same units that segment emits."""
    units = Counter(tok for line in segmented.splitlines() for tok in line.split() if tok != marker)
    scheme, types, tokens, mean = stats_out.strip().split("\t")
    want_mean = sum(map(len, units)) / len(units)
    ok = (scheme == "os" and int(types) == len(units) and int(tokens) == sum(units.values())
          and abs(float(mean) - want_mean) <= 5e-5 + 1e-9)
    return ok, f"stats {stats_out.strip()!r} vs {len(units)} types, {sum(units.values())} tokens"


def check_lcsr_sample(a: list[str], b: list[str], per_line: str):
    """`lcsr --per-line` agrees with the plain-DP oracle on every pair."""
    got = [float(x) for x in per_line.split()]
    if len(got) != len(a):
        return False, f"{len(got)} values for {len(a)} pairs"
    for i, (x, y, value) in enumerate(zip(a, b, got)):
        want = lcsr_oracle(x, y)
        if abs(value - want) > 5e-7 + 1e-12:
            return False, f"pair {i}: {value} vs oracle {want:.6f}"
    return True, ""


def check_correlate_sample(parts: dict[str, list[str]], output: str):
    got = labelled_value(output, "Pearson")
    xs = [lcsr_oracle(s, t) for s, t in zip(parts["src"], parts["tgt"])]
    ys = [lcsr_oracle(h, r) for h, r in zip(parts["hyp"], parts["ref"])]
    want = pearson_oracle(xs, ys)
    return abs(got - want) <= 5e-7 + 1e-9, f"Pearson {got} vs oracle {want:.6f}"


def check_nbest(nbest_in: list[str], nbest_out: str):
    """Entry count and the first four fields of every entry are kept."""
    out = nbest_out.splitlines()
    if len(out) != len(nbest_in):
        return False, f"{len(out)} entries out for {len(nbest_in)} in"
    for i, (src, dst) in enumerate(zip(nbest_in, out)):
        fields = dst.split(" ||| ")
        if len(fields) != 5 or fields[:4] != src.split(" ||| "):
            return False, f"entry {i} changed: {dst[:80]!r}"
        if not 0.0 <= float(fields[4]) <= 100.0:
            return False, f"entry {i}: word BLEU {fields[4]} outside [0, 100]"
    return True, ""
