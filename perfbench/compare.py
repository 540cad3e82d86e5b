#!/usr/bin/env python3
"""Compares two sets of saved benchmark results (see perfbench/README.md).

    python3 perfbench/compare.py --base .bench_out/A*.json \
                                 --new  .bench_out/B*.json

Each file is one result saved by run.py. Results are grouped by workload;
for every metric it prints each side's median and quartiles, the change of
the medians, and whether that change is worse than the metric's bound in
BENCHMARK.json. It refuses (exit 2) to compare results whose stamps differ
in anything but the source revision: host, compiler, build type, thread
count, trace mode, run length, or the set of seeds. A run marked invalid
is named and left out, and so is the other side's run of the same seed.
It reports only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MUST_MATCH = ["nproc", "cpu_model", "compiler", "build_type", "threads",
              "trace", "seconds"]


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            saved = json.load(f)
        saved["path"] = path
        runs.setdefault(saved["stamp"]["workload"], []).append(saved)
    return runs


def invalid(saved):
    return saved["report"]["info"].get("generator_valid", 1) == 0


def stamp_key(saved):
    return tuple((k, saved["stamp"][k]) for k in MUST_MATCH)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    refused = False
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload, []), new.get(workload, [])
        keys = {stamp_key(s) for s in a + b}
        seeds_a = sorted(s["stamp"]["seed"] for s in a)
        seeds_b = sorted(s["stamp"]["seed"] for s in b)
        if not a or not b or len(keys) != 1 or seeds_a != seeds_b:
            print("%s: refused: stamps or seeds differ (%d stamp variants, "
                  "seeds %s vs %s)" % (workload, len(keys), seeds_a, seeds_b))
            refused = True
            continue
        dropped = {s["stamp"]["seed"] for s in a + b if invalid(s)}
        for s in a + b:
            if invalid(s):
                print("%s: left out, marked invalid (the load generator ran "
                      "late)" % s["path"])
        a = [s for s in a if s["stamp"]["seed"] not in dropped]
        b = [s for s in b if s["stamp"]["seed"] not in dropped]
        if not a:
            print("%s: refused: no valid pair of runs" % workload)
            refused = True
            continue
        print("%s: %d runs per side, base %s, new %s" % (
            workload, len(a), a[0]["stamp"]["source_sha256"],
            b[0]["stamp"]["source_sha256"]))
        for name in a[0]["result"]["metrics"]:
            va = [s["result"]["metrics"][name]["value"] for s in a]
            vb = [s["result"]["metrics"][name]["value"] for s in b]
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            m = declared.get(name, {})
            worse = -change if m.get("better") == "higher" else change
            verdict = ""
            if "bound" in m:
                verdict = ("WORSE beyond bound %.2f" % m["bound"]
                           if worse > m["bound"] else "within bound")
            print("  %-50s base %12.4g [%.4g, %.4g]  new %12.4g [%.4g, %.4g]"
                  "  %+7.2f%%  %s" % (name, qa[1], qa[0], qa[2], qb[1], qb[0],
                                      qb[2], 100 * change, verdict))
    return 2 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
