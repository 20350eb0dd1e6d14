#!/usr/bin/env python3
"""Smoke test of one bench_e2e workload.

Usage: smoke_test.py BINARY WORKLOAD OUT_DIR

Runs WORKLOAD for one second under KOIKA_BENCH_SMOKE=1 (tiny counts),
once untraced into OUT_DIR/t0 and once traced into OUT_DIR/t1, through
run.py's run_once. Fails unless both runs pass their output checks,
print every metric BENCHMARK.json declares for their mode, and write a
BENCH_e2e-WORKLOAD.json that tools/check_bench_schema.py accepts. The
untraced report stays in OUT_DIR/t0 for the trajectory test.
"""

import os
import subprocess
import sys

sys.dont_write_bytecode = True  # no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, workload, out = argv
    os.environ["KOIKA_BENCH_SMOKE"] = "1"
    reports = []
    for trace in (0, 1):
        rundir = os.path.join(out, f"t{trace}")
        try:
            result = run.run_once(binary, rundir, workload, 1, 1, trace)
        except run.BenchError as e:
            print(f"smoke_test: {workload} (trace {trace}): {e}")
            return 1
        if not result["correct"]:
            print(f"smoke_test: {workload} (trace {trace}): "
                  f"{result['failed']} of {result['attempted']} output "
                  f"checks failed")
            return 1
        reports.append(os.path.join(rundir, f"BENCH_e2e-{workload}.json"))
    schema = os.path.join(run.ROOT, "tools", "check_bench_schema.py")
    return subprocess.run([sys.executable, schema] + reports).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
