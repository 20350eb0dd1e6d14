#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

Usage: compare_runs.py A_DIR B_DIR
       compare_runs.py --self-test

Each directory is searched recursively for BENCH_e2e-<workload>.json
files, one per run (bench_e2e writes one into its run directory; run.py
puts run directories under .bench_build/runs/). For every pair of an
end-to-end metric in BENCHMARK.json and a workload, it prints each
side's median and quartiles over its runs and marks the pair:

  ok          the medians differ by at most the metric's bound
              (a share of A's median);
  DIFFERS     they differ by more, labelled better or worse by the
              metric's direction;
  unresolved  either side's IQR/median exceeds the bound, so the runs
              are too noisy to show a difference that small.

Exit codes: 0 every pair agrees within its bound, 1 some pair differs,
2 usage error or no comparable runs.
"""

import json
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREFIX = "BENCH_e2e-"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["end_to_end"]


def load_runs(directory):
    """{workload: {metric: [value per run]}} from the BENCH files."""
    runs = {}
    for dirpath, _, files in os.walk(directory):
        for name in sorted(files):
            if not (name.startswith(PREFIX) and name.endswith(".json")):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                report = json.load(f)
            workload = report.get("bench", "")[len("e2e-"):]
            gauges = report.get("metrics", {}).get("gauges", {})
            per = runs.setdefault(workload, {})
            for metric, value in gauges.items():
                if isinstance(value, (int, float)):
                    per.setdefault(metric, []).append(float(value))
    return runs


def summary(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(spec, a, b, out):
    """Print one line per (metric, workload) found on both sides;
    return the number of pairs whose medians differ beyond the bound."""
    differ = compared = 0
    for m in spec:
        for workload in sorted(set(a) & set(b)):
            av = a[workload].get(m["name"])
            bv = b[workload].get(m["name"])
            if not av or not bv:
                continue
            compared += 1
            aq1, amed, aq3 = summary(av)
            bq1, bmed, bq3 = summary(bv)
            bound = m["bound"]
            change = (bmed - amed) / amed if amed else 0.0
            noisy = (amed and (aq3 - aq1) / amed > bound) or \
                (bmed and (bq3 - bq1) / bmed > bound)
            if abs(change) > bound:
                differ += 1
                better = (change > 0) == (m["better"] == "higher")
                verdict = "DIFFERS (%s)" % ("better" if better else "worse")
            else:
                verdict = "ok"
            if noisy:
                verdict += ", unresolved"
            out.write("%-12s %-18s A %.5g [%.5g, %.5g] n=%d  "
                      "B %.5g [%.5g, %.5g] n=%d  %+.1f%% (bound %g%%)  %s\n"
                      % (m["name"], workload, amed, aq1, aq3, len(av),
                         bmed, bq1, bq3, len(bv), 100 * change,
                         100 * bound, verdict))
    return differ, compared


def self_test():
    spec = [{"name": "rate", "unit": "1/s", "better": "higher",
             "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": 0.25}]
    steady = {"w": {"rate": [100, 101, 99, 100, 102],
                    "setup_s": [3.0, 3.1, 2.9]}}
    slower = {"w": {"rate": [80, 81, 79, 80, 82],
                    "setup_s": [3.0, 3.1, 2.9]}}
    noisy = {"w": {"rate": [60, 100, 140, 100, 100, 70, 130],
                   "setup_s": [3.0]}}
    sink = open(os.devnull, "w")
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got}, want {want}")

    expect("identical sets", compare(spec, steady, steady, sink), (0, 2))
    expect("20% slower rate", compare(spec, steady, slower, sink), (1, 2))
    expect("20% faster rate", compare(spec, slower, steady, sink), (1, 2))
    expect("missing workload", compare(spec, steady, {"x": {}}, sink),
           (0, 0))
    lines = []

    class Lines:
        def write(self, s):
            lines.append(s)

    compare(spec, steady, noisy, Lines())
    expect("noisy side unresolved",
           any("unresolved" in line for line in lines), True)
    expect("setup within bound",
           any(line.startswith("setup_s") and line.rstrip().endswith("ok")
               for line in lines), True)

    with tempfile.TemporaryDirectory() as tmp:
        for i, value in enumerate([1.0, 2.0, 3.0]):
            run = os.path.join(tmp, f"run{i}")
            os.makedirs(run)
            with open(os.path.join(run, PREFIX + "w.json"), "w") as f:
                json.dump({"bench": "e2e-w",
                           "metrics": {"gauges": {"rate": value}}}, f)
        expect("files loaded", load_runs(tmp), {"w": {"rate": [1.0, 2.0,
                                                               3.0]}})
    for f in failures:
        print(f"self-test FAILED: {f}")
    if not failures:
        print("compare_runs self-test: ok")
    return 1 if failures else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load_runs(argv[0]), load_runs(argv[1])
    differ, compared = compare(load_spec(), a, b, sys.stdout)
    if compared == 0:
        print("compare_runs: no (metric, workload) pair has runs on both "
              "sides", file=sys.stderr)
        return 2
    print(f"compare_runs: {compared - differ} of {compared} pairs agree "
          f"within their bound")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
