"""Run one orthosyl CLI command in this fresh interpreter and time it.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments), ``stdin`` (a path or null
for empty input), ``stdout`` (the path the command's output is written to
after timing), ``spans`` (a path, or null for an untraced run), ``command``
(the benchmark's name for it) and ``fault`` (null, or the name of a
deliberately wrong substitute from FAULTS).

The timer covers ``orthosyl.cli.run(argv, stdin, stdout)`` only, with stdin
and stdout in memory, so interpreter start-up and imports are left out (the
benchmark reports them as setup_s) and no command inherits another's warm
caches. The harness pairs the time with a reference it measures outside
this process (see hostspeed.py).
The last line printed is a JSON object with the exit status, the seconds,
the process's peak resident set size and the package's kernel backend
(while it names one).
"""

import io
import json
import sys
import time
from pathlib import Path

import spans


def _off_by_one(name, fn):
    def wrong(a, b):
        result = fn(a, b)
        return result + 1 if a and b else result

    return wrong


FAULTS = {"lcs_length": ("orthosyl.metrics.lcs", "lcs_length", _off_by_one)}


def peak_rss_kb() -> int:
    """Peak resident set size of this process since its exec (Linux VmHWM).

    Not ru_maxrss: Linux carries the forking parent's peak over into the
    child's ru_maxrss, so it would count the harness's memory.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    import orthosyl.metrics
    from orthosyl import cli

    if spec.get("fault"):
        spans.patch(*FAULTS[spec["fault"]])
    run = cli.run
    recorder = None
    if spec.get("spans"):
        recorder = spans.Recorder()
        recorder.install()
        run = recorder.wrap("cli.run", cli.run)

    stdin = io.BytesIO(Path(spec["stdin"]).read_bytes() if spec.get("stdin") else b"")
    stdout = io.StringIO()
    start = time.perf_counter()
    rc = run(spec["argv"], stdin, stdout)
    seconds = time.perf_counter() - start

    Path(spec["stdout"]).write_text(stdout.getvalue(), encoding="utf-8")
    if recorder is not None:
        Path(spec["spans"]).write_text(
            json.dumps({"command": spec["command"], "spans": recorder.spans})
        )
    print(json.dumps({
        "rc": rc,
        "seconds": seconds,
        "maxrss_kb": peak_rss_kb(),
        "kernel_backend": getattr(orthosyl.metrics, "KERNEL_BACKEND", None),
    }))


if __name__ == "__main__":
    main()
