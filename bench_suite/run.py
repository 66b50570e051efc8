#!/usr/bin/env python3
"""Builds the benchmark suite (Release) and runs it.

    python3 bench_suite/run.py [--workload W] [--seed N] [--seconds S]
                               [--trace 0|1] [--trace-file PATH] [--out FILE]

With --workload, runs that one workload and passes its output through: the
last line of stdout is the result as one JSON object. Without it, runs every
workload, each in its own process (so rss_mb is per workload), and prints
every metric with its unit. --out writes the runs as JSON records for
compare.py. Exits non-zero when the build fails, a run fails, or a
workload's outputs disagree with the from-scratch oracle.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["engine_churn", "session_hot_world", "daemon_flush_rtt", "daemon_ingest_open"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the suite; returns the binary's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "bench_suite", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "bench_suite")


def run_one(binary, workload, args, trace_file, echo):
    """Runs one workload in its own process (cwd: the build directory, where
    the daemon workloads put their sockets). Returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_file:
        cmd += ["--trace-file", os.path.abspath(trace_file)]
    try:
        proc = subprocess.run(cmd, cwd=build_dir(), stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s did not finish within %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if proc.returncode != 0 or result is None:
        sys.stderr.write("run.py: %s failed (exit %d); repro: python3 bench_suite/run.py "
                         "--workload %s --seed %d --seconds %d --trace %d\n"
                         % (workload, proc.returncode, workload, args.seed, args.seconds,
                            args.trace))
        return proc.returncode or 1, result
    return 0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-file", help="write the spans of a traced run as CSV "
                    "(one file per workload when running all)")
    ap.add_argument("--out", help="append the runs as JSON records to this file")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    records = []
    for w in workloads:
        trace_file = args.trace_file
        if trace_file and not args.workload:
            trace_file = "%s.%s.csv" % (os.path.splitext(trace_file)[0], w)
        code, result = run_one(binary, w, args, trace_file, echo=bool(args.workload))
        status = status or code
        if result is None:
            continue
        records.append({"workload": w, "seed": args.seed, "seconds": args.seconds,
                        "traced": bool(args.trace), "result": result})
        if not args.workload:
            print("== %s (seed %d, %s): correct=%s attempted=%d failed=%d"
                  % (w, args.seed, "traced" if args.trace else "untraced",
                     result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
        if not result["correct"]:
            status = status or 1
    if args.out:
        with open(args.out, "a") as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
