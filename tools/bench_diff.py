#!/usr/bin/env python3
"""Diff a cuttlesim-bench-v1 report against a baseline report.

The bench binaries (bench/, bench_e2e/) write BENCH_<name>.json; this
tool compares one against an earlier run of the same bench:

  - structural drift is always checked: schema tag, bench name, the
    label set (an entry that disappears or appears is drift), and the
    engine used per label;
  - timing is checked only when NEITHER side is a smoke run
    (host.smoke): current cycles_per_sec must not fall below
    baseline * (1 - tolerance). Speedups never fail.

Usage: bench_diff.py BASELINE CURRENT [--tolerance=F] [--update]
                     [--report-only]
       bench_diff.py --self-test

  --tolerance=F   allowed fractional slowdown (default 0.25)
  --update        copy CURRENT over BASELINE and exit 0
  --report-only   print the full comparison but always exit 0 (a
                  trajectory report, not a gate)

Exit codes: 0 ok / within tolerance, 1 drift or regression, 2 usage.
"""

import json
import shutil
import sys

SCHEMA = "cuttlesim-bench-v1"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def entries_by_label(report):
    out = {}
    for e in report.get("entries", []):
        if isinstance(e, dict) and isinstance(e.get("label"), str):
            out[e["label"]] = e
    return out


def compare(problems, notes, baseline, current, tolerance):
    for name, rep in (("baseline", baseline), ("current", current)):
        if not isinstance(rep, dict) or rep.get("schema") != SCHEMA:
            problems.append(f"{name}: schema tag must be '{SCHEMA}', "
                            f"got {rep.get('schema')!r}")
            return
    if baseline.get("bench") != current.get("bench"):
        problems.append(f"bench name drift: baseline "
                        f"{baseline.get('bench')!r} vs current "
                        f"{current.get('bench')!r}")
    base = entries_by_label(baseline)
    cur = entries_by_label(current)
    for label in sorted(set(base) - set(cur)):
        problems.append(f"label drift: {label!r} in baseline but "
                        f"missing from current")
    for label in sorted(set(cur) - set(base)):
        problems.append(f"label drift: {label!r} in current but not in "
                        f"baseline (rerun with --update to adopt)")
    smoke = bool(baseline.get("host", {}).get("smoke")) or \
        bool(current.get("host", {}).get("smoke"))
    if smoke:
        notes.append("smoke run on at least one side: timing not "
                     "compared")
    for label in sorted(set(base) & set(cur)):
        b, c = base[label], cur[label]
        if b.get("engine") != c.get("engine"):
            problems.append(f"{label}: engine drift: baseline "
                            f"{b.get('engine')!r} vs current "
                            f"{c.get('engine')!r}")
        bs, cs = b.get("cycles_per_sec"), c.get("cycles_per_sec")
        if not isinstance(bs, (int, float)) or \
                not isinstance(cs, (int, float)) or bs <= 0:
            notes.append(f"{label}: no comparable cycles_per_sec")
            continue
        ratio = cs / bs
        line = (f"{label}: {cs:.3g} vs baseline {bs:.3g} cycles/s "
                f"({ratio:+.1%} of baseline)")
        if not smoke and ratio < 1.0 - tolerance:
            problems.append(f"regression: {line}, below the "
                            f"{tolerance:.0%} tolerance band")
        else:
            notes.append(line)


def self_test():
    def report(smoke=True, rate=1000.0, engine="T5", labels=("a", "b")):
        return {"schema": SCHEMA, "bench": "t", "host": {"smoke": smoke},
                "entries": [{"label": x, "engine": engine,
                             "cycles_per_sec": rate} for x in labels]}

    problems, notes = [], []
    compare(problems, notes, report(), report(), 0.25)
    if problems:
        print("self-test: identical reports should not drift:")
        for p in problems:
            print(f"  {p}")
        return 1

    failures = []

    def expect_bad(label, baseline, current):
        p, n = [], []
        compare(p, n, baseline, current, 0.25)
        if not p:
            failures.append(label)

    expect_bad("label drift", report(), report(labels=("a",)))
    expect_bad("engine drift", report(), report(engine="T4"))
    expect_bad("slowdown past tolerance", report(smoke=False),
               report(smoke=False, rate=100.0))
    expect_bad("schema drift", {"schema": "cuttlesim-prof-v1"}, report())

    # Timing must NOT gate smoke runs, and speedups never fail.
    for label, baseline, current in (
            ("smoke suppresses timing", report(smoke=True),
             report(smoke=True, rate=1.0)),
            ("speedup passes", report(smoke=False),
             report(smoke=False, rate=9999.0))):
        p, n = [], []
        compare(p, n, baseline, current, 0.25)
        if p:
            failures.append(label)

    if failures:
        for label in failures:
            print(f"self-test: wrong verdict: {label}")
        return 1
    print("self-test: bench_diff detects drift/regression and ignores "
          "smoke timing")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    tolerance = 0.25
    update = report_only = False
    paths = []
    for a in argv[1:]:
        if a.startswith("--tolerance="):
            try:
                tolerance = float(a.split("=", 1)[1])
            except ValueError:
                print(f"bench_diff: bad tolerance {a!r}", file=sys.stderr)
                return 2
        elif a == "--update":
            update = True
        elif a == "--report-only":
            report_only = True
        elif a.startswith("--"):
            print(f"bench_diff: unknown flag {a!r}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, current_path = paths
    if update:
        shutil.copyfile(current_path, baseline_path)
        print(f"bench_diff: baseline {baseline_path} updated from "
              f"{current_path}")
        return 0
    try:
        baseline = load(baseline_path)
        current = load(current_path)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot load reports: {e}", file=sys.stderr)
        return 2
    problems, notes = [], []
    compare(problems, notes, baseline, current, tolerance)
    for n in notes:
        print(f"  {n}")
    for p in problems:
        print(f"DRIFT: {p}")
    if not problems:
        print(f"bench_diff: {current_path} matches the "
              f"{baseline_path} trajectory")
    return 0 if report_only or not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
