#!/usr/bin/env python3
"""Validate BENCH_*.json files against the cuttlesim-bench-v1 schema.

Every bench binary (bench/bench_util.hpp, BenchReport::write) emits one
BENCH_<name>.json; this checker is the executable form of the schema
documented in EXPERIMENTS.md ("The bench report schema"). ctest runs it
over each smoke-mode bench run (label: bench-smoke), so a drifting
writer fails the suite instead of silently producing unparseable
results.

Usage: check_bench_schema.py FILE.json [FILE.json ...]
Exits 0 when every file validates; prints one line per problem.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_prof_schema  # the embedded `prof` block is cuttlesim-prof-v1


def err(problems, path, msg):
    problems.append(f"{path}: {msg}")


def check_number(problems, path, obj, key, required=True):
    if key not in obj:
        if required:
            err(problems, path, f"missing numeric field '{key}'")
        return
    if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
        err(problems, path, f"field '{key}' must be a number, got "
                            f"{type(obj[key]).__name__}")


def check_string(problems, path, obj, key, required=True):
    if key not in obj:
        if required:
            err(problems, path, f"missing string field '{key}'")
        return
    if not isinstance(obj[key], str):
        err(problems, path, f"field '{key}' must be a string")


def check_entry(problems, path, i, entry):
    where = f"{path} entries[{i}]"
    if not isinstance(entry, dict):
        err(problems, where, "entry must be an object")
        return
    check_string(problems, where, entry, "label")
    check_string(problems, where, entry, "engine")
    check_number(problems, where, entry, "cycles")
    check_number(problems, where, entry, "wall_seconds")
    check_number(problems, where, entry, "cycles_per_sec")
    # Optional blocks: per-rule counters and engine-specific extras.
    if "rules" in entry:
        if not isinstance(entry["rules"], list):
            err(problems, where, "'rules' must be an array")
        else:
            for j, rule in enumerate(entry["rules"]):
                rwhere = f"{where} rules[{j}]"
                if not isinstance(rule, dict):
                    err(problems, rwhere, "rule must be an object")
                    continue
                check_string(problems, rwhere, rule, "name")
                check_number(problems, rwhere, rule, "commits")
                check_number(problems, rwhere, rule, "aborts")
                if "abort_reasons" in rule:
                    reasons = rule["abort_reasons"]
                    if not isinstance(reasons, dict):
                        err(problems, rwhere,
                            "'abort_reasons' must be an object")
                    else:
                        for key in ("guard", "read_conflict",
                                    "write_conflict"):
                            check_number(problems, rwhere, reasons, key)
    if "extra" in entry and not isinstance(entry["extra"], dict):
        err(problems, where, "'extra' must be an object")


def check_host(problems, path, host):
    """The `host` block: which machine/toolchain produced the numbers."""
    where = f"{path} host"
    if not isinstance(host, dict):
        err(problems, where, "'host' must be an object "
                             "(bench_util.hpp host_json)")
        return
    check_string(problems, where, host, "compiler")
    check_string(problems, where, host, "cache_dir")
    check_number(problems, where, host, "hw_concurrency")
    check_number(problems, where, host, "cache_entries")
    for key in ("cache_enabled", "smoke"):
        if not isinstance(host.get(key), bool):
            err(problems, where, f"field '{key}' must be a boolean")


def check_file(problems, path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        err(problems, path, f"unreadable or invalid JSON: {e}")
        return
    if not isinstance(root, dict):
        err(problems, path, "root must be an object")
        return
    if root.get("schema") != "cuttlesim-bench-v1":
        err(problems, path,
            f"schema tag must be 'cuttlesim-bench-v1', got "
            f"{root.get('schema')!r}")
    check_string(problems, path, root, "bench")
    entries = root.get("entries")
    if not isinstance(entries, list):
        err(problems, path, "'entries' must be an array")
        return
    if not entries:
        err(problems, path, "'entries' is empty — the bench recorded "
                            "nothing")
    for i, entry in enumerate(entries):
        check_entry(problems, path, i, entry)
    check_host(problems, path, root.get("host"))
    # `prof` is optional (KOIKA_BENCH_NO_PROF=1 suppresses it) but must
    # be a valid cuttlesim-prof-v1 report when present.
    if "prof" in root:
        check_prof_schema.validate(problems, f"{path} prof", root["prof"])
    metrics = root.get("metrics")
    if not isinstance(metrics, dict):
        err(problems, path, "'metrics' must be an object "
                            "(MetricsRegistry::to_json)")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = []
    for path in argv[1:]:
        check_file(problems, path)
    for p in problems:
        print(p)
    if not problems:
        print(f"{len(argv) - 1} bench report(s) validate against "
              f"cuttlesim-bench-v1")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
