"""Alternating parent/change pairs of the benchmark, collated into one BENCH file.

Usage (from the repository root):

    python3 tools/bench_compare.py PARENT_DIR CHANGE_DIR --label NAME \
        --seeds 101-110 [--control COMMAND]

PARENT_DIR and CHANGE_DIR are checkouts of the two versions. For every
workload W of BENCHMARK.json, in the order listed there, and every seed S,
it runs BENCHMARK.json's command at its `run_seconds` T in each checkout,
one after the other,

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

alternating which of the two goes first, and (re)writes BENCH_NAME.json in
the current directory after every pair, printing that pair's change /
parent ratio of every end-to-end metric and the host's one-minute load
average before each side's run. Both checkouts' Python sources are
compiled first, so that both sides start from bytecode.

Per end-to-end metric of BENCHMARK.json the file holds both sides' raw
and scaled medians, quartiles and IQR / median, the change / parent
ratio of the scaled medians, how many pairs each side won, and three
flags:

- `regressed`: the change's scaled median is worse than the parent's by
  more than the metric's `bound`;
- `unresolved`: the parent's IQR / median exceeds the bound, so the runs
  spread too widely to tell, unless every change run reads better than
  every parent run;
- `gained` (the rule for claiming a gain): of at least ten pairs run, the
  change won nine tenths or more, and its scaled median is better than
  the parent's by more than the parent's q3 - q1.

Per side it adds up the checks attempted and failed, takes the highest
load average seen before a run (a busy host slows both sides unevenly),
and counts the runs that exited non-zero, whose pairs are left out of the
summaries but stay in the pairs run that `gained` divides by. It also
keeps every run's figures, the seeds and the two revisions: a git
checkout's `HEAD` commit if its `src/` has no uncommitted change, else
`src-sha256:HEX`, a hash of the checkout's `src/` tree (see
`source_hash`). `--control` records the command that the change should
leave alone, whose figures show how far the two sides drift apart on code
they share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def source_hash(src: Path) -> str:
    """`src-sha256:HEX` over a source tree's files in sorted relative-path
    order, each as its path, its length and its bytes; `__pycache__` and
    `*.egg-info`, which compiling and installing leave behind, are skipped."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        rel = path.relative_to(src)
        if any(part == "__pycache__" or part.endswith(".egg-info") for part in rel.parts):
            continue
        data = path.read_bytes()
        digest.update(f"{rel.as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return f"src-sha256:{digest.hexdigest()}"


def revision(checkout: Path) -> str:
    """The commit a checkout that is a git work tree's top level has checked
    out, else a hash of its `src/` tree (a `git archive` copy, a directory
    inside another repository, or a work tree whose `src/` differs from its
    commit)."""
    git = ["git", "-C", str(checkout)]
    proc = subprocess.run(git + ["rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    lines = proc.stdout.split("\n")
    if proc.returncode == 0 and Path(lines[0]).resolve() == checkout.resolve():
        status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                capture_output=True, text=True)
        if status.returncode == 0 and not status.stdout:
            return lines[1]
    return source_hash(checkout / "src")


def compile_sources(checkout: Path) -> None:
    """Write a checkout's bytecode before its first run.

    Under PYTHONDONTWRITEBYTECODE a checkout that has no __pycache__ yet
    compiles its sources in every fresh interpreter while one that has
    reads them, which makes start-up, and memory, differ between two
    copies of the same code.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench", "tests"],
                   cwd=checkout, check=True, capture_output=True)


def run_argv(benchmark: dict, workload: str, seed: int | str) -> list[str]:
    """BENCHMARK.json's command for one workload and seed at its run length."""
    return [*benchmark["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{benchmark['run_seconds']:g}", "--trace", "0"]


def run_once(checkout: Path, argv: list[str]) -> dict:
    """One benchmark run: the result line's metrics plus the report's raw
    figures, and the host's one-minute load average before it started."""
    load = os.getloadavg()[0]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "load": load, "stderr": proc.stderr[-2000:]}
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "exit": 0,
        "load": load,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "scaled": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": {k: v["raw"] for k, v in report["figures"].items()},
    }


def summary(values: list[float]) -> dict | None:
    if not values:
        return None
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def collate(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-side run totals and, per end-to-end metric, both sides' summaries.

    `sides` adds up each side's `attempted` and `failed` checks and takes its
    highest `load` before a run (`max_load`). A run that exited non-zero
    drops its pair from the metric summaries, and its side's
    `pairs_dropped` counts it, but it stays among the pairs run that
    `gained` needs nine tenths of. A tie counts as a win for neither side.
    A metric without a `bound` gets None for `regressed` and `unresolved`.
    """
    ok = [p for p in pairs if all(p[s]["exit"] == 0 for s in SIDES)]
    sides = {
        side: {
            "attempted": sum(p[side].get("attempted", 0) for p in pairs),
            "failed": sum(p[side].get("failed", 0) for p in pairs),
            "max_load": max(p[side]["load"] for p in pairs),
            "pairs_dropped": sum(p[side]["exit"] != 0 for p in pairs),
        }
        for side in SIDES
    }
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for side in SIDES:
            entry[side] = {
                kind: summary([p[side][kind][name] for p in ok if name in p[side][kind]])
                for kind in ("scaled", "raw")
            }
        parent, change = entry["parent"]["scaled"], entry["change"]["scaled"]
        entry["ratio_scaled_median"] = (
            change["median"] / parent["median"] if parent and change and parent["median"] else None
        )
        values = [(p["parent"]["scaled"][name], p["change"]["scaled"][name]) for p in ok]
        entry["change_wins"] = sum(c != p and (c > p) == higher for p, c in values)
        entry["parent_wins"] = sum(c != p and (p > c) == higher for p, c in values)
        entry["pairs"] = len(ok)
        entry["regressed"] = entry["unresolved"] = None
        entry["gained"] = False
        if parent and change:
            sign = 1 if higher else -1
            better = (change["median"] - parent["median"]) * sign
            entry["gained"] = (len(pairs) >= 10 and 10 * entry["change_wins"] >= 9 * len(pairs)
                               and better > parent["q3"] - parent["q1"])
            bound = metric.get("bound")
            if bound is not None:
                separated = min(c * sign for _, c in values) > max(p * sign for p, _ in values)
                entry["regressed"] = -better > bound * parent["median"]
                entry["unresolved"] = (parent["iqr_over_median"] or 0.0) > bound and not separated
        out[name] = entry
    return {"sides": sides, "metrics": out}


def progress_line(workload: str, pair: dict, metrics: list[dict]) -> str:
    """One pair's change / parent ratio of every end-to-end metric, its failed
    checks and each side's load average before its run.

    A ratio reads n/a where either side has no figure for the metric (a run
    that exited non-zero, or a zero parent figure).
    """
    scaled = {s: pair[s].get("scaled", {}) for s in SIDES}
    ratios = []
    for metric in metrics:
        name = metric["name"]
        parent, change = scaled["parent"].get(name), scaled["change"].get(name)
        ratio = f"{change / parent:.3f}" if parent and change is not None else "n/a"
        ratios.append(f"{name} {ratio}")
    failed = {s: pair[s].get("failed", f"exit {pair[s]['exit']}") for s in SIDES}
    return (f"{workload} seed {pair['seed']}: change/parent {', '.join(ratios)}"
            f"; failed parent {failed['parent']} change {failed['change']}"
            f"; load parent {pair['parent']['load']:.2f} change {pair['change']['load']:.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--control", help="a command the change leaves alone, e.g. desegment")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    out_path = Path(f"BENCH_{args.label}.json")
    bench = {
        "label": args.label,
        "command": " ".join(run_argv(benchmark, "W", "S")),
        "revisions": {"parent": revision(args.parent), "change": revision(args.change)},
        "seeds": args.seeds,
        "control": args.control,
        "workloads": {},
    }
    dirs = {"parent": args.parent, "change": args.change}
    for checkout in dirs.values():
        compile_sources(checkout)
    for workload in (w["name"] for w in benchmark["workloads"]):
        pairs: list[dict] = []
        for idx, seed in enumerate(args.seeds):
            order = SIDES if idx % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(dirs[side], run_argv(benchmark, workload, seed))
            pairs.append(pair)
            bench["workloads"][workload] = {**collate(pairs, metrics), "pairs": pairs}
            out_path.write_text(json.dumps(bench, indent=1) + "\n")
            print(progress_line(workload, pair, metrics), flush=True)
        flagged = {flag: [name for name, m in bench["workloads"][workload]["metrics"].items()
                          if m[flag]] for flag in ("regressed", "unresolved", "gained")}
        print(f"{workload}: regressed {flagged['regressed']}, unresolved {flagged['unresolved']},"
              f" gained {flagged['gained']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
