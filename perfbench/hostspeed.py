"""Host-speed normalisation of the benchmark's timings.

The benchmark was defined on a shared 2-vCPU VM that switches, for seconds
at a time, between a fast state and states up to 1.8x slower, with a mix of
states that drifts over tens of minutes, so raw medians of the same code
moved by a third between sets of runs. Every timed sample is therefore
paired with a reference timed next to it, outside the program's processes,
and reported as its time on the reference host:

    scaled = seconds * (reference on the reference host / reference now) ** exponent

- A command (timed inside its child, see child.py) is paired with the mean
  of `loop_seconds` run in the harness process just before the child starts
  and just after it ends. The harness and its children share one CPU: the
  vCPUs change speed independently, and with the loop on the command's CPU
  the correlation of the logs rose from about 0.2-0.6 to 0.6-0.85.
- A start-up sample is paired with the start-up of a fresh interpreter that
  only imports numpy (`STARTUP_REFERENCE`), which is most of the CLI's
  start-up but none of the program. Start-up tracks the loop hardly at all
  (correlation of the logs about 0.1) and this reference well (0.7-0.8).

Each timing has its own exponent, stored in scaling.json: the least-squares
slope of log time on log reference within runs, which is the exponent that
makes log scaled time vary least from sample to sample. Noise in the
reference pulls that slope below the true one (between clean fast and slow
stretches a command's log time moves about 0.9 times the loop's), so a
lasting change of host speed is only partly cancelled. Refit with

    python3 perfbench/hostspeed.py FILE...

where each FILE is a run's report (perfbench/out/report-*.json) or its
captured standard output. The fit holds for the program it was measured on:
refit when a change moves work between the interpreter and numpy or C code,
or changes what start-up imports, and report the raw medians, which every
report keeps next to the scaled figures.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path

SCALING = Path(__file__).resolve().parent / "scaling.json"

# Seconds `loop_seconds` and the start-up reference take on the reference
# host: the 2-vCPU Xeon VM at 2.1 GHz the benchmark was defined on, in its
# fast state. They fix the unit of the scaled figures only; comparing two
# commits on one host does not depend on them.
REF_LOOP_S = 0.040
REF_STARTUP_S = 0.120
STARTUP_REFERENCE = ["-c", "import numpy"]

_LOOP_TEXT = "".join(chr(0x0915 + (i * 7) % 37) for i in range(4000))


def loop_seconds() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    The loop touches no orthosyl code and runs with the garbage collector
    off, so the harness's own objects cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = {}
        for _ in range(36):
            for i in range(len(_LOOP_TEXT) - 3):
                key = _LOOP_TEXT[i:i + 3]
                counts[key] = counts.get(key, 0) + 1
            sorted(counts.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def exponents() -> dict[str, float]:
    """Exponent per timing name ("setup" and each command) from scaling.json."""
    return json.loads(SCALING.read_text())["exponents"]


def scaled(seconds: float | None, reference: float | None, ref_host: float,
           exponent: float) -> float | None:
    """A time measured while the reference took `reference` s, on the reference host."""
    if seconds is None or reference is None:
        return None
    return seconds * (ref_host / reference) ** exponent


def _report(path: Path) -> dict:
    text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.strip().splitlines()[-2])  # a run's stdout


def fit(reports: list[dict]) -> dict:
    """Least-squares slope of log time on log reference per timing, within runs."""
    pairs: dict[str, list[tuple[float, float]]] = {}
    for report in reports:
        for name, samples in report["samples"]["timings"].items():
            run = [(math.log(r), math.log(t)) for t, r in zip(samples["seconds"], samples["reference"])
                   if t and r]
            if len(run) < 3:
                continue
            mx = statistics.fmean(x for x, _ in run)
            my = statistics.fmean(y for _, y in run)
            pairs.setdefault(name, []).extend((x - mx, y - my) for x, y in run)
    slopes, points = {}, {}
    for name, xy in sorted(pairs.items()):
        slopes[name] = round(sum(x * y for x, y in xy) / sum(x * x for x, _ in xy), 3)
        points[name] = len(xy)
    return {"exponents": slopes, "points": points}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    result = fit([_report(Path(p)) for p in argv])
    missing = set(exponents()) - set(result["exponents"])
    if missing:
        print(f"hostspeed: no runs with three samples of {sorted(missing)}; "
              f"{SCALING.name} left as it was", file=sys.stderr)
        return 1
    result["runs"] = len(argv)
    SCALING.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
