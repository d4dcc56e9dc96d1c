"""Seeded end-to-end benchmark of the orthosyl command-line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload hindi|multiscript --seed N \
        --seconds S --trace 0|1

Load model: batch jobs in a closed loop with one client. Every workload
runs the same eight CLI commands in a fixed order (segment --unit os,
desegment on that output, stats --unit os, lcsr, correlate, score --metric
bleu, score --metric lebleu --delta 0.6, nbest-rescore), each in its own
fresh interpreter, timed inside it around ``orthosyl.cli.run`` (see
child.py). Rounds of the eight commands repeat while the next one fits in
--seconds; a command's throughput is its input code points over the median
of its round times. Interpreter start-up and imports are reported once, as
setup_s: the median wall time of a fresh ``python -m orthosyl.cli segment
--unit os`` on empty input, sampled twice per round. Every time is scaled
to the speed of a reference host (see hostspeed.py); the report keeps the
raw medians next to the scaled figures.

With --trace 1 the run instead alternates an untraced round with a round
whose commands record spans around the program's public functions (see
spans.py) and reports the per-layer metrics, plus a kernel microbenchmark
(microkernels.py) and an import-time probe.

Every run checks the program's outputs (see checks.py). The last line of
standard output is the result: one JSON object with the keys correct,
attempted, failed (counts of output checks) and metrics. The line before
it is a JSON report with the workload's properties and input fingerprint,
the environment, every check and every sample. The report and the last
traced round's spans are also kept under perfbench/out/. A run that has
no value for a metric it reports (say, a layer whose public function was
never called) prints the report only and exits 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import spans
from microkernels import KERNELS, LENGTHS as KERNEL_LENGTHS

try:
    import workloads
except ModuleNotFoundError as exc:  # tests/textgen.py is not next to this directory
    sys.exit(f"perfbench: {exc}; run from a checkout of the repository")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 120
MIN_TRACED_ROUNDS = 3

LEBLEU_DELTA = 0.6
# name, CLI arguments ("@key" is the path of generated file `key`), stdin file
COMMANDS = (
    ("segment", ["segment", "--unit", "os"], "corpus"),
    ("desegment", ["desegment"], "segment.out"),
    ("stats", ["stats", "--unit", "os"], "corpus"),
    ("lcsr", ["lcsr", "--a", "@lcsr.a", "--b", "@lcsr.b"], None),
    ("correlate", ["correlate", "--src", "@correlate.src", "--tgt", "@correlate.tgt",
                   "--hyp", "@correlate.hyp", "--ref", "@correlate.ref"], None),
    ("bleu", ["score", "--metric", "bleu", "--hyp", "@bleu.hyp", "--ref", "@bleu.ref"], None),
    ("lebleu", ["score", "--metric", "lebleu", "--delta", str(LEBLEU_DELTA),
                "--hyp", "@lebleu.hyp", "--ref", "@lebleu.ref"], None),
    ("nbest", ["nbest-rescore", "--nbest", "@nbest", "--ref", "@nbest.ref"], None),
)
SETUP_ARGV = ["-m", "orthosyl.cli", "segment", "--unit", "os"]

END_TO_END = {
    "setup_s": "s",
    **{f"{name}_mchar_s": "Mchar/s" for name, _, _ in COMMANDS},
    "peak_rss_mb": "MB",
}

# per-layer span fields; see layer_metrics for their definitions
LAYER_FIELDS = {
    "corpus.load_corpus": ("calls", "busy_s", "mchar_s"),
    "corpus.vocab_stats": ("self_s",),
    "scripts.detect_script": ("calls", "busy_s", "p50_us", "p99_us"),
    "scripts.get_table": ("calls",),
    "syllabify.syllabify": ("calls", "busy_s", "self_s", "p50_us", "p99_us"),
    "syllabify.syllabify_indic": ("calls", "self_s"),
    "syllabify.syllabify_alpha": ("calls", "self_s"),
    "segment.tokenize_sentence": ("calls", "busy_s", "self_s", "p50_us", "p99_us"),
    "segment.segment_word": ("calls", "self_s"),
    "segment.detokenize": ("calls", "busy_s", "p50_us", "p99_us"),
    "metrics.lcs.lcs_length": ("calls", "busy_s", "p50_us", "p99_us", "cells", "cells_per_s"),
    "metrics.lcs.edit_distance": ("calls", "busy_s", "p50_us", "p99_us", "cells", "cells_per_s"),
    "metrics.lebleu.lebleu_report": ("self_s",),
    "metrics.lebleu.word_similarity": ("calls", "busy_s", "useful_ratio"),
    "metrics.bleu.bleu": ("busy_s",),
    "metrics.bleu.sentence_bleu_smoothed": ("calls", "busy_s", "p50_us", "p99_us"),
    "metrics.correlation.similarity_correlation": ("self_s",),
    "metrics.nbest.parse_nbest": ("busy_s",),
    "metrics.nbest.rescore_nbest": ("self_s",),
}
FIELD_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us",
    "cells": "count", "cells_per_s": "1/s", "mchar_s": "Mchar/s", "useful_ratio": "ratio",
}
LATENCY_FIELDS = ("p50_us", "p99_us")
# Layers that only some workloads reach (the alphabetic scanner runs on
# Latin and Cyrillic words, which hindi has none of). They are kept in the
# report, where an unobserved layer reads null, but are not per-layer
# metrics: the result line holds a number for every metric on every workload.
REPORT_ONLY_LAYERS = ("syllabify.syllabify_alpha",)

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import.numpy_s": "s",
    "cli.build_parser_s": "s",
    **{f"cli.run.{name}.self_s": "s" for name, _, _ in COMMANDS},
    **{f"{layer}.{f}": FIELD_UNITS[f] for layer, fields in LAYER_FIELDS.items()
       if layer not in REPORT_ONLY_LAYERS for f in fields},
    **{f"metrics.lcs.{k}.len{n}_cells_per_s": "1/s" for k in KERNELS for n in KERNEL_LENGTHS},
    "trace.overhead_frac": "ratio",
}


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


class Bench:
    """One benchmark run: its work directory, child processes and checks."""

    def __init__(self, workdir: Path, fault: str | None = None):
        self.workdir = workdir
        self.fault = fault
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.checks = checks.Checks()
        self.text: dict[str, str] = {}
        self.kernel_backend = None
        self.exponents = hostspeed.exponents()

    def path(self, key: str) -> Path:
        return self.workdir / key

    def write(self, key: str, lines: list[str]) -> None:
        self.text[key] = "".join(f"{line}\n" for line in lines)
        self.path(key).write_text(self.text[key], encoding="utf-8")

    def input_chars(self, argv: list[str], stdin: str | None) -> int:
        keys = [a[1:] for a in argv if a.startswith("@")] + ([stdin] if stdin else [])
        return sum(len(self.text[k]) for k in keys)

    def cli(self, name: str, argv: list[str], stdin: str | None, out: str,
            spans_file: str | None = None) -> dict:
        """Run one CLI command in a fresh child; record whether it exited cleanly."""
        argv = [str(self.path(a[1:])) if a.startswith("@") else a for a in argv]
        spec = {
            "command": name, "argv": argv, "fault": self.fault,
            "stdin": str(self.path(stdin)) if stdin else None,
            "stdout": str(self.path(out)),
            "spans": str(self.path(spans_file)) if spans_file else None,
        }
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"rc": proc.returncode, "seconds": None, "maxrss_kb": None}
        self.kernel_backend = result.get("kernel_backend", self.kernel_backend)
        ok = proc.returncode == 0 and result["rc"] == 0 and not proc.stderr
        self.checks.record(f"{name}.exit", ok, f"rc={result['rc']} stderr={proc.stderr[-300:]!r}")
        if ok:
            self.text[out] = self.path(out).read_text(encoding="utf-8")
        else:
            self.text[out] = ""
            result["seconds"] = None
        return result

    def startup(self, name: str, argv: list[str]) -> float | None:
        """Wall time of one fresh interpreter running argv on empty input."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=self.env, input=b"",
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - start
        ok = proc.returncode == 0 and not proc.stdout and not proc.stderr
        self.checks.record(f"{name}.exit", ok, f"rc={proc.returncode} {proc.stderr[-300:]!r}")
        return seconds if ok else None

    def setup_sample(self) -> tuple[float | None, float | None]:
        """A CLI start-up and the start-up reference timed right after it."""
        return (self.startup("setup", SETUP_ARGV),
                self.startup("setup.reference", hostspeed.STARTUP_REFERENCE))

    def round(self, tag: str, traced: bool = False) -> dict[str, dict]:
        """Run the eight commands once; outputs go to '<command>.<tag>'.

        Each command's reference is the mean of the host-speed loops run
        just before its child starts and just after it ends.
        """
        results = {}
        loop = hostspeed.loop_seconds()
        for name, argv, stdin in COMMANDS:
            out = f"{name}.{tag}"
            result = self.cli(name, argv, stdin, out, f"spans.{name}.{tag}" if traced else None)
            before, loop = loop, hostspeed.loop_seconds()
            result["reference"] = (before + loop) / 2
            result["scaled_s"] = hostspeed.scaled(result["seconds"], result["reference"],
                                                  hostspeed.REF_LOOP_S, self.exponents[name])
            result["chars"] = self.input_chars(argv, stdin)
            results[name] = result
            if name == "segment" and "segment.out" not in self.text:
                self.write("segment.out", self.text[out].splitlines())
        return results

    def same_outputs(self, tag: str, first: str = "r0") -> None:
        for name, _, _ in COMMANDS:
            same = self.text[f"{name}.{tag}"] == self.text[f"{name}.{first}"]
            self.checks.record(f"{name}.repeatable", same, f"round {tag} output differs from {first}")


def prepare(bench: Bench, wl: workloads.Workload) -> None:
    """Write the inputs; OS-segment the n-best variants with the program."""
    for key, lines in wl.files.items():
        bench.write(key, lines)
    bench.write("nbest.variants", [v for _, v, _ in wl.nbest_variants])
    bench.cli("prepare.segment", ["segment", "--unit", "os"], "nbest.variants", "nbest.segmented")
    bench.write("nbest", workloads.nbest_lines(wl, bench.text["nbest.segmented"].splitlines()))


def check_outputs(bench: Bench, wl: workloads.Workload) -> None:
    """Correctness checks on the first round's outputs and on oracle samples."""
    s, text, c = bench, bench.text, bench.checks
    c.run("segment.desegment_roundtrip",
          lambda: checks.check_segment(wl.files["corpus"], text["segment.r0"], text["desegment.r0"]))
    c.run("stats.units", lambda: checks.check_stats(text["segment.r0"], text["stats.r0"]))
    c.run("nbest.entries", lambda: checks.check_nbest(
        text["nbest"].splitlines(), text["nbest.r0"]))

    def bleu_full():
        got = checks.labelled_value(text["bleu.r0"], "BLEU")
        want = checks.bleu_oracle(wl.files["bleu.hyp"], wl.files["bleu.ref"])
        return abs(got - want) <= 0.005 + 1e-6, f"BLEU {got} vs oracle {want:.4f}"

    c.run("bleu.oracle", bleu_full)

    s.cli("check.lcsr", ["lcsr", "--per-line", "--a", "@sample.lcsr.a", "--b", "@sample.lcsr.b"],
          None, "check.lcsr.out")
    c.run("lcsr.oracle", lambda: checks.check_lcsr_sample(
        wl.files["sample.lcsr.a"], wl.files["sample.lcsr.b"], text["check.lcsr.out"]))

    s.cli("check.correlate", ["correlate", *[x for p in ("src", "tgt", "hyp", "ref")
                                             for x in (f"--{p}", f"@sample.correlate.{p}")]],
          None, "check.correlate.out")
    parts = {p: wl.files[f"sample.correlate.{p}"] for p in ("src", "tgt", "hyp", "ref")}
    c.run("correlate.oracle", lambda: checks.check_correlate_sample(parts, text["check.correlate.out"]))

    pair = ["--hyp", "@sample.lebleu.hyp", "--ref", "@sample.lebleu.ref"]
    for key, extra in (("bleu", ["--metric", "bleu"]),
                       ("lebleu1", ["--metric", "lebleu", "--delta", "1"]),
                       ("lebleu", ["--metric", "lebleu", "--delta", str(LEBLEU_DELTA)])):
        s.cli(f"check.{key}", ["score", *extra, *pair, "--report", f"@check.{key}.report"],
              None, f"check.{key}.out")
        report = s.path(f"check.{key}.report")
        text[f"check.{key}.report"] = report.read_text(encoding="utf-8") if report.exists() else ""
    reports = {k: checks.read_report(text[f"check.{k}.report"]) for k in ("bleu", "lebleu1", "lebleu")}

    def bleu_sample():
        got = float(reports["bleu"]["score"])
        want = checks.bleu_oracle(wl.files["sample.lebleu.hyp"], wl.files["sample.lebleu.ref"])
        return abs(got - want) <= 5e-7 + 1e-9, f"BLEU {got} vs oracle {want:.6f}"

    def delta1_equals_bleu():
        a = {k: v for k, v in reports["bleu"].items() if k not in ("metric", "delta")}
        b = {k: v for k, v in reports["lebleu1"].items() if k not in ("metric", "delta")}
        return bool(a) and a == b, f"BLEU report {a} vs Le-BLEU(delta=1) report {b}"

    def dominates_bleu():
        bleu, fuzzy = float(reports["bleu"]["score"]), float(reports["lebleu"]["score"])
        return fuzzy >= bleu, f"Le-BLEU(delta={LEBLEU_DELTA}) {fuzzy} below BLEU {bleu}"

    c.run("bleu.sample_oracle", bleu_sample)
    c.run("lebleu.delta1_equals_bleu", delta1_equals_bleu)
    c.run("lebleu.dominates_bleu", dominates_bleu)


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced rounds while the next one fits in `seconds`; end-to-end metrics.

    The metrics come from scaled times (see hostspeed.py); `figures` puts
    the same metric computed from raw times next to each.
    """
    setup, rounds, round_s = [], [], 0.0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() + round_s <= deadline:
        start = time.perf_counter()
        setup += [bench.setup_sample(), bench.setup_sample()]
        rounds.append(bench.round(f"r{len(rounds)}"))
        if len(rounds) > 1:
            bench.same_outputs(f"r{len(rounds) - 1}")
        round_s = time.perf_counter() - start
    setup_exp = bench.exponents["setup"]
    metrics = {"setup_s": median(hostspeed.scaled(t, r, hostspeed.REF_STARTUP_S, setup_exp)
                                 for t, r in setup)}
    figures = {"setup_s": {"scaled": metrics["setup_s"], "raw": median(t for t, _ in setup)}}
    for name, _, _ in COMMANDS:
        chars = rounds[0][name]["chars"]
        figure = {}
        for kind, key in (("scaled", "scaled_s"), ("raw", "seconds")):
            t = median(r[name][key] for r in rounds)
            figure[kind] = chars / t / 1e6 if t else None
        metrics[f"{name}_mchar_s"] = figure["scaled"]
        figures[f"{name}_mchar_s"] = figure
    rss = [r[name]["maxrss_kb"] for r in rounds for name in r if r[name]["maxrss_kb"]]
    metrics["peak_rss_mb"] = max(rss) / 1024 if rss else None
    samples = {
        "timings": {
            "setup": {"seconds": [t for t, _ in setup], "reference": [r for _, r in setup]},
            **{name: {key: [r[name][key] for r in rounds] for key in ("seconds", "reference")}
               for name, _, _ in COMMANDS},
        },
        "input_chars": {name: rounds[0][name]["chars"] for name, _, _ in COMMANDS},
    }
    return {"metrics": metrics, "figures": figures, "samples": samples}


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics of one traced round from its aggregated spans."""
    out = {}
    parser = stats.get(("cli.build_parser", None))
    out["cli.build_parser_s"] = median(parser.durations) if parser else None
    for name, _, _ in COMMANDS:
        root = stats.get(("cli.run", name))
        out[f"cli.run.{name}.self_s"] = root.self_s if root else None
    for layer, fields in LAYER_FIELDS.items():
        st = stats.get((layer, None))
        for f in fields:
            if f not in LATENCY_FIELDS:
                out[f"{layer}.{f}"] = _field(st, f) if st and st.calls else None
    return out


def _field(st: spans.LayerStats, f: str):
    if f == "calls":
        return st.calls
    if f == "busy_s":
        return st.busy_s
    if f == "self_s":
        return st.self_s
    if f == "p50_us":
        return spans.percentile(sorted(st.durations), 50.0) * 1e6
    if f == "p99_us":
        tail = spans.tail_percentile(st.calls)
        if tail is None or tail < 99.0:
            return None  # fewer than ten samples beyond p99
        return spans.percentile(sorted(st.durations), 99.0) * 1e6
    if f == "cells":
        return sum(st.values)
    if f == "cells_per_s":
        return sum(st.values) / st.busy_s if st.busy_s else None
    if f == "mchar_s":
        return sum(st.values) / st.busy_s / 1e6 if st.busy_s else None
    if f == "useful_ratio":
        return sum(v >= LEBLEU_DELTA for v in st.values) / st.calls
    raise KeyError(f)


def latency_summary(stats: dict) -> dict:
    """p50 and the highest percentile with ten samples beyond it, per layer."""
    out = {}
    for (name, command), st in sorted(stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
        if command is not None or not st.calls:
            continue
        d = sorted(st.durations)
        q = spans.tail_percentile(len(d))
        out[name] = {"calls": len(d), "p50_us": spans.percentile(d, 50) * 1e6,
                     "tail": None if q is None else {"q": q, "us": spans.percentile(d, q) * 1e6}}
    return out


def probe_imports(bench: Bench) -> dict:
    """Import times of the CLI module and of numpy from -X importtime."""
    total, numpy_s = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import orthosyl.cli"],
                              env=bench.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        bench.checks.record("importtime.exit", proc.returncode == 0, proc.stderr[-300:])
        cli_us, np_us = 0, None
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            top_level = len(name) - len(name.lstrip()) == 1
            if top_level and name.strip().split(".")[0] == "orthosyl":
                cli_us += int(cumulative)
            if name.strip() == "numpy" and np_us is None:
                np_us = int(cumulative)
        total.append(cli_us / 1e6 if cli_us else None)
        numpy_s.append(np_us / 1e6 if np_us is not None else None)
    return {"cli.import_s": median(total), "cli.import.numpy_s": median(numpy_s)}


def probe_kernels(bench: Bench, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "microkernels.py"), str(seed)],
                          env=bench.env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    ok = proc.returncode == 0
    bench.checks.record("microkernels.exit", ok, proc.stderr[-300:])
    result = json.loads(proc.stdout.splitlines()[-1]) if ok else {"cells_per_s": {}}
    metrics = {f"metrics.lcs.{k}.len{n}_cells_per_s": result["cells_per_s"].get(f"{k}.{n}")
               for k in KERNELS for n in KERNEL_LENGTHS}
    return metrics, result


def trace(bench: Bench, seconds: float, seed: int) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics.

    Latency percentiles pool the spans of all traced rounds (at least
    MIN_TRACED_ROUNDS, so every latency layer has 1000 spans for p99); the
    other fields are medians over the traced rounds.
    """
    kernel_metrics, kernel_detail = probe_kernels(bench, seed)
    imports = probe_imports(bench)
    untraced, traced, per_round, pooled = [], [], [], []
    deadline, pair_s = time.perf_counter() + seconds, 0.0
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() + pair_s <= deadline:
        start = time.perf_counter()
        untraced.append(bench.round(f"r{len(untraced)}"))
        tag = f"t{len(traced)}"
        traced.append(bench.round(tag, traced=True))
        if len(untraced) > 1:
            bench.same_outputs(f"r{len(untraced) - 1}")
        bench.same_outputs(tag)
        runs = []
        for name, _, _ in COMMANDS:
            path = bench.path(f"spans.{name}.{tag}")
            if path.exists():
                data = json.loads(path.read_text())
                runs.append((data["command"], data["spans"]))
        per_round.append(layer_metrics(spans.aggregate(runs)))
        pooled += runs
        pair_s = time.perf_counter() - start

    def wall(rounds):
        return median(sum(r[n]["scaled_s"] or 0.0 for n in r) for r in rounds)

    stats = spans.aggregate(pooled)
    metrics = {**imports}
    for key in per_round[0]:
        metrics[key] = median(r[key] for r in per_round)
    for layer, fields in LAYER_FIELDS.items():
        st = stats.get((layer, None))
        for f in fields:
            if f in LATENCY_FIELDS:
                metrics[f"{layer}.{f}"] = _field(st, f) if st and st.calls else None
    metrics.update(kernel_metrics)
    metrics["trace.overhead_frac"] = wall(traced) / wall(untraced) - 1.0
    return {"metrics": metrics, "latency": latency_summary(stats), "kernels": kernel_detail,
            "rounds": {"untraced": len(untraced), "traced": len(traced)}}


def environment(kernel_backend) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernel_backend,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        env["git_sha"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: float = 1.0, fault: str | None = None) -> tuple[dict, dict]:
    """Build, run and check one workload; returns (result line, report)."""
    workdir = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(workdir, fault)
    try:
        wl = workloads.build(name, seed, scale)
        prepare(bench, wl)
        bench.setup_sample()  # warm-up: compiles bytecode, fills the page cache
        if traced:
            measured = trace(bench, seconds, seed)
            units = PER_LAYER
        else:
            measured = measure(bench, seconds)
            units = END_TO_END
        check_outputs(bench, wl)
        if traced:
            keep = OUT / f"spans-{name}"
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir()
            last = f"t{measured['rounds']['traced'] - 1}"
            for cmd, _, _ in COMMANDS:
                src = bench.path(f"spans.{cmd}.{last}")
                if src.exists():
                    shutil.copy(src, keep / f"{cmd}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    c = bench.checks
    if traced:
        measured["layers"] = {f"{layer}.{f}": measured["metrics"].get(f"{layer}.{f}")
                              for layer, fields in LAYER_FIELDS.items() for f in fields}
    result = {
        "correct": c.failed == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {k: {"value": measured["metrics"].get(k), "unit": u} for k, u in units.items()},
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "scale": scale, "fault": fault,
        "properties": workloads.properties(wl),
        "environment": environment(bench.kernel_backend),
        "failed_frac": c.failed / c.attempted,
        "normalisation": {
            "note": "every time is host-normalised: scaled to the reference host by a reference "
                    "timed next to it, see perfbench/hostspeed.py; refit the exponents when a "
                    "change moves work between the interpreter and numpy or C code",
            "exponents": bench.exponents,
            "ref_loop_s": hostspeed.REF_LOOP_S,
            "ref_startup_s": hostspeed.REF_STARTUP_S,
        },
        "checks": c.results,
        **{k: v for k, v in measured.items() if k != "metrics"},
    }
    return result, report


def unmeasured(result: dict) -> list[str]:
    """Metrics of a result line whose value is not a finite number.

    A layer whose wrapper saw no call has no value. It must not read as
    0 s, and the result line cannot carry null, so such a run fails.
    """
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    return [k for k, m in result["metrics"].items() if not number(m["value"])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/orthosyl/cli.py", "tests/textgen.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: cannot run, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    # One CPU for the harness and every child it starts: the host's vCPUs
    # change speed independently, and a reference timed on another vCPU than
    # the command it scales tracks it far less well (see hostspeed.py).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    missing = unmeasured(result)
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)} (a layer whose public "
              "function was not called, or a failed command); see the report above",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
