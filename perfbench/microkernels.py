"""Microbenchmark of the public DP kernels at fixed string lengths.

Usage: python3 microkernels.py SEED

Times ``orthosyl.metrics.lcs_length`` and ``orthosyl.metrics.edit_distance``
(the public functions only, whatever backend sits behind them) on seeded
random Devanagari strings of 10, 40, 160 and 640 code points, and prints
one JSON line with the DP cells (m*n) computed per second for each kernel
and length, plus the selected kernel backend where the package names one.
It replaces benchmarks/bench_kernels.py, which times the private numba and
numpy kernel functions by name.
"""

import json
import random
import sys
import time

LENGTHS = (10, 40, 160, 640)
KERNELS = ("lcs_length", "edit_distance")
MIN_SECONDS = 0.25
MIN_CALLS = 3
PAIRS = 8


def main() -> None:
    from orthosyl import metrics

    rng = random.Random(int(sys.argv[1]))
    out = {"backend": getattr(metrics, "KERNEL_BACKEND", None), "cells_per_s": {}, "calls": {}}
    for n in LENGTHS:
        pairs = [
            tuple("".join(chr(rng.randint(0x0915, 0x0939)) for _ in range(n)) for _ in range(2))
            for _ in range(PAIRS)
        ]
        for name in KERNELS:
            fn = getattr(metrics, name)
            fn(*pairs[0])
            calls = 0
            start = time.perf_counter()
            while True:
                a, b = pairs[calls % PAIRS]
                fn(a, b)
                calls += 1
                elapsed = time.perf_counter() - start
                if calls >= MIN_CALLS and elapsed >= MIN_SECONDS:
                    break
            out["cells_per_s"][f"{name}.{n}"] = calls * n * n / elapsed
            out["calls"][f"{name}.{n}"] = calls
    print(json.dumps(out))


if __name__ == "__main__":
    main()
