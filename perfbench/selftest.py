"""Smoke test of the benchmark harness on small inputs.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that
1. an untraced and a traced run of every workload report every metric that
   BENCHMARK.json names, each with its unit and a finite number as value
   (p99 latencies excepted: the small inputs give too few calls for them),
   and pass every output check;
2. substituting an off-by-one ``lcs_length`` through the same patching
   mechanism the tracer uses makes the LCS oracle check fail and raises
   the failed share above 0.
Exits 1 with the reasons when either does not hold.
"""

import json
import sys

import run

SCALE = 0.05
SEED = 7


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in run.workloads.WORKLOADS:
        for traced in (False, True):
            result, report = run.run_workload(workload, SEED, 0, traced, scale=SCALE)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[traced]:
                problems.append(f"{workload} trace={int(traced)}: metrics {sorted(set(got) ^ set(want[traced]))} "
                                f"or their units differ from BENCHMARK.json")
            # At SCALE a layer has fewer than the 1000 calls a p99 needs; at
            # full scale every latency layer has them (see run.trace).
            missing = [k for k in run.unmeasured(result) if not k.endswith(".p99_us")]
            if missing:
                problems.append(f"{workload} trace={int(traced)}: no value for {missing}")
            if result["failed"]:
                bad = [c for c in report["checks"] if not c["ok"]]
                problems.append(f"{workload} trace={int(traced)}: failed checks {bad}")

    result, report = run.run_workload("hindi", SEED, 0, False, scale=SCALE, fault="lcs_length")
    failed = {c["check"] for c in report["checks"] if not c["ok"]}
    if "lcsr.oracle" not in failed or report["failed_frac"] <= 0:
        problems.append(f"a wrong lcs_length went unnoticed (failed checks: {sorted(failed)})")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
