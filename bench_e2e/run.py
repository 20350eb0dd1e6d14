#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage (from the root of a checkout):

  python3 bench_e2e/run.py --workload W --seed N --seconds T --trace 0|1

Builds bench_e2e (bench_e2e/CMakeLists.txt, over the checkout's src/)
into .bench_build/, runs the workload in a fresh directory under
.bench_build/runs/, relays the binary's `name value unit` lines, and
prints as its last line one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`metrics` holds every end-to-end metric named in BENCHMARK.json with
--trace 0, and every per-layer metric with --trace 1 (the traced run
also leaves trace/trace.json and trace/layers.json in its run
directory). `attempted` and `failed` count the binary's output checks.
Exits non-zero, printing no result, when the build or the run fails or
a declared metric is missing.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
# The whole run must end within 180 s; the build has its own budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

METRIC_LINE = re.compile(r"^([A-Za-z0-9][A-Za-z0-9_.-]*) (\S+) (\S+)$")
CHECKS_LINE = re.compile(r"^checks (\d+) (\d+)$")


class BenchError(Exception):
    pass


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def build():
    """Configure (once) and build bench_e2e; build output goes to
    stderr. A lock keeps concurrent runs from building at once."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                      "-j", jobs])
        for cmd in steps:
            left = deadline - time.monotonic()
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=max(left, 1)).returncode
            if rc != 0:
                raise BenchError(f"build step failed ({rc}): "
                                 f"{' '.join(cmd)}")


def run_once(binary, rundir, workload, seed, seconds, trace):
    """Run one workload in `rundir` (created empty) and return the result
    object. The binary's metric lines are echoed to stdout."""
    if os.path.exists(rundir):
        shutil.rmtree(rundir)
    tmp = os.path.join(rundir, "tmp")
    os.makedirs(tmp)
    # Keep the compiler's temporaries and the default compile cache
    # inside the run directory (the benchmark sets its own private
    # caches; this one only names the `host` block's cache_dir).
    env = dict(os.environ, TMPDIR=tmp, CUTTLESIM_CACHE_DIR="cache")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        cmd.append("--trace=trace")
    try:
        proc = subprocess.run(cmd, cwd=rundir, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise BenchError(f"bench_e2e exited with {proc.returncode}")

    printed, checks = {}, None
    for line in proc.stdout.splitlines():
        m = CHECKS_LINE.match(line)
        if m:
            checks = (int(m.group(1)), int(m.group(2)))
            continue
        m = METRIC_LINE.match(line)
        if m:
            try:
                printed[m.group(1)] = (float(m.group(2)), m.group(3))
            except ValueError:
                pass
    if checks is None or checks[0] < 1:
        raise BenchError("bench_e2e reported no output checks")
    metrics = {}
    for name, unit in declared_metrics(trace):
        if name not in printed:
            raise BenchError(f"metric '{name}' was not printed")
        value, got_unit = printed[name]
        if not math.isfinite(value):
            raise BenchError(f"metric '{name}' is {value}")
        if got_unit != unit:
            raise BenchError(f"metric '{name}' printed in '{got_unit}', "
                             f"BENCHMARK.json says '{unit}'")
        metrics[name] = {"value": value, "unit": unit}
    attempted, failed = checks
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        build()
        rundir = os.path.join(BUILD, "runs",
                              f"{args.workload}-s{args.seed}-t{args.trace}"
                              f"-{os.getpid()}")
        result = run_once(BINARY, rundir, args.workload, args.seed,
                          args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
