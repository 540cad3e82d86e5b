#!/usr/bin/env python3
"""Builds and runs the rrre benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train|serve_pairs|stream|all \
        --seed N --seconds S --trace 0|1

`stream` runs only with --trace 1.

Run from the root of a source checkout. The first run configures and builds
`rrre_perfbench` (and the libraries it links) into `.bench_build/perfbench`,
or into `$CARGO_TARGET_DIR/perfbench` when that is set; later runs rebuild
only what changed.

Standard output: a table of the metrics, a `stamp:` line (host, compiler,
build, threads, source revision, seed), and as the last line one JSON
object with exactly the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The whole report, stamp included, is also
saved under `.bench_out/` for perfbench/compare.py.

Exit status: 0 when the run is correct, 1 when an output check failed or a
metric is missing, 2 when the benchmark cannot build or run here.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train", "serve_pairs", "stream"]
# `stream` has no end-to-end metrics; only the traced run measures it.
END_TO_END_WORKLOADS = ["train", "serve_pairs"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no rrre source tree around %s (need CMakeLists.txt and src/)"
             % HERE)
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rrre_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if proc.returncode != 0:
            fail("build step %s exited %d" % (" ".join(cmd[:3]),
                                               proc.returncode))
    binary = os.path.join(out, "rrre_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_sha256():
    """Hash of everything the benchmark builds from, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                paths.append(os.path.join(dirpath, name))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return cxx or "unknown"


def stamp(args, threads):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "threads": threads,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_binary(binary, workload, args):
    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d-%d" % (workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # Own process group, so a timeout takes every thread and child with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail("%s exited %d" % (workload, proc.returncode))
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail("%s printed no report" % workload)
    return json.loads(lines[-1])


def select(report, declared, trace, errors):
    """The declared metrics, in declared order; anything missing, renamed
    or non-finite is an error."""
    source = report["layers"] if trace else report["metrics"]
    out = {}
    for m in declared:
        got = source.get(m["name"])
        if got is None:
            errors.append("metric %s missing" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            errors.append("metric %s has unit %s, declared %s"
                          % (m["name"], got["unit"], m["unit"]))
        if got["value"] is None or not math.isfinite(got["value"]):
            errors.append("metric %s is not a finite number" % m["name"])
            continue
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def save(workload, args, report, result, st):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-s%d-t%d-%s.json" % (workload, args.seed, args.trace,
                                   time.strftime("%Y%m%dT%H%M%S"))
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump({"stamp": st, "result": result, "report": report}, f,
                  indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not args.trace and args.workload == "stream":
        parser.error("stream is measured only in the traced run (--trace 1)")
    binary = build()
    declared = declared_metrics(args.trace)
    workloads = ([args.workload] if args.workload != "all"
                 else WORKLOADS if args.trace else END_TO_END_WORKLOADS)
    if args.trace:
        # One traced run already measures every workload's layers.
        workloads = workloads[:1]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        report = run_binary(binary, workload, args)
        errors = [c["name"] + ": " + c["detail"] for c in report["checks"]
                  if not c["ok"]]
        metrics = select(report, declared, args.trace, errors)
        correct = report["correct"] and not errors
        for e in errors:
            log("perfbench: %s: %s" % (workload, e))
        result = {"correct": correct, "attempted": report["attempted"],
                  "failed": report["failed"], "metrics": metrics}
        info = report["info"]
        st = stamp(args, int(info.get("threads",
                                      info.get(workload + ".threads", 0))))
        save(workload, args, report, result, st)
        for name, m in metrics.items():
            print("%-12s %-58s %18.6f %s" % (workload, name, m["value"],
                                             m["unit"]))
        print("%-12s attempted %d failed %d correct %s"
              % (workload, result["attempted"], result["failed"], correct))
        if report["info"].get("generator_valid", 1) == 0:
            print("%-12s INVALID: the load generator ran late; compare.py "
                  "leaves this run out" % workload)
        print("stamp: " + json.dumps(st, sort_keys=True))
        final["correct"] = final["correct"] and correct
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, m in metrics.items():
            final["metrics"][prefix + name] = m
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
