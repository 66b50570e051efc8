#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench_suite/compare.py BASE NEW        # verdicts; exit 1 on any "worse"
    python3 bench_suite/compare.py RUNS            # one set: medians, quartiles, spreads
    python3 bench_suite/compare.py RUNS --write-baseline bench_suite/baseline.json

BASE, NEW and RUNS are files of records written by `run.py --out` (one JSON
object per line), or a baseline file written by --write-baseline. Traced
runs are refused: per-layer numbers carry tracing overhead and are not
compared. The end-to-end metrics, their direction and their bounds come
from BENCHMARK.json at the repository root (override with --benchmark).

Verdict per (metric, workload), from each side's median and quartiles
(statistics.quantiles(values, n=4)); the spread of a side is (q3 - q1) /
median, and a change is (NEW median - BASE median) / BASE median, signed
so that positive is worse:
  unresolved  a side's spread exceeds the bound, unless every NEW run is
              better than every BASE run (then: better)
  worse       the change exceeds the bound
  better      the change is below minus the bound
  same        otherwise
Any rise in the failure ratio (failed / attempted) of a workload, or an
incorrect run, is worse.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(path):
    with open(path) as f:
        spec = json.load(f)
    return spec["end_to_end"]


def load_runs(path, e2e_names):
    """Returns {workload: {"metrics": {name: [values]}, "attempted": n,
    "failed": n, "incorrect": n, "units": {name: unit}}}."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    sets = {}
    if isinstance(doc, dict) and "workloads" in doc:  # a baseline file
        for w, entry in doc["workloads"].items():
            sets[w] = {"metrics": {n: list(m["values"]) for n, m in entry["metrics"].items()},
                       "units": {n: m["unit"] for n, m in entry["metrics"].items()},
                       "attempted": entry["attempted"], "failed": entry["failed"],
                       "incorrect": entry.get("incorrect", 0)}
        return sets
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        metrics = rec["result"]["metrics"]
        if rec.get("traced") or not all(n in metrics for n in e2e_names):
            sys.exit("compare.py: %s:%d is a traced run (or lacks end-to-end metrics); "
                     "compare untraced runs only" % (path, lineno))
        s = sets.setdefault(rec["workload"], {"metrics": {}, "units": {}, "attempted": 0,
                                              "failed": 0, "incorrect": 0})
        for n in e2e_names:
            s["metrics"].setdefault(n, []).append(metrics[n]["value"])
            s["units"][n] = metrics[n]["unit"]
        s["attempted"] += rec["result"]["attempted"]
        s["failed"] += rec["result"]["failed"]
        s["incorrect"] += 0 if rec["result"]["correct"] else 1
    return sets


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def summarize(sets, specs):
    print("%-20s %-12s %12s %12s %12s %8s %6s %s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound", "n"))
    for w in sorted(sets):
        for spec in specs:
            vals = sets[w]["metrics"].get(spec["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "  > bound" if s > spec["bound"] else ("  > bound/3" if s > spec["bound"] / 3 else "")
            print("%-20s %-12s %12.6g %12.6g %12.6g %7.1f%% %5.0f%% %d%s" % (
                w, spec["name"], q1, med, q3, 100 * s, 100 * spec["bound"], len(vals), flag))
        print("%-20s %-12s failed %d of %d attempted, %d incorrect runs" % (
            w, "", sets[w]["failed"], sets[w]["attempted"], sets[w]["incorrect"]))


def verdict(a, b, spec):
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    change = (mb - ma) / ma if ma else 0.0
    if not lower:
        change = -change
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
        return ("better" if all_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(base, new, specs):
    worse = 0
    print("%-20s %-12s %32s   %32s %8s  %s" % (
        "workload", "metric", "base q1 / median / q3", "new q1 / median / q3", "change",
        "verdict"))
    for w in sorted(set(base) & set(new)):
        for spec in specs:
            a = base[w]["metrics"].get(spec["name"])
            b = new[w]["metrics"].get(spec["name"])
            if not a or not b:
                continue
            v, change = verdict(a, b, spec)
            worse += v == "worse"
            print("%-20s %-12s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g %+7.1f%%  %s" % (
                (w, spec["name"]) + quartiles(a) + quartiles(b) + (100 * change, v)))
        fa = base[w]["failed"] / max(1, base[w]["attempted"])
        fb = new[w]["failed"] / max(1, new[w]["attempted"])
        v = "worse" if fb > fa or new[w]["incorrect"] > base[w]["incorrect"] else "same"
        worse += v == "worse"
        print("%-20s %-12s %32.4g   %32.4g %8s  %s" % (w, "fail_ratio", fa, fb, "", v))
    for w in sorted(set(base) ^ set(new)):
        print("%-20s only in %s" % (w, "BASE" if w in base else "NEW"))
    return worse


def write_baseline(sets, specs, path, source):
    doc = {"source": source, "workloads": {}}
    for w in sorted(sets):
        entry = {"attempted": sets[w]["attempted"], "failed": sets[w]["failed"],
                 "incorrect": sets[w]["incorrect"], "metrics": {}}
        for spec in specs:
            vals = sets[w]["metrics"].get(spec["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            entry["metrics"][spec["name"]] = {
                "unit": sets[w]["units"].get(spec["name"], spec["unit"]),
                "median": med, "q1": q1, "q3": q3, "spread": spread(vals), "values": vals}
        doc["workloads"][w] = entry
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("runs", nargs="+", metavar="RUNS", help="BASE [NEW], or one set")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--write-baseline", metavar="OUT",
                    help="write one set's medians, quartiles and values to OUT")
    args = ap.parse_args()
    if len(args.runs) > 2:
        ap.error("give one or two sets of runs")
    specs = load_benchmark(args.benchmark)
    names = [s["name"] for s in specs]
    sets = [load_runs(p, names) for p in args.runs]
    if args.write_baseline:
        if len(sets) != 1:
            ap.error("--write-baseline takes one set of runs")
        write_baseline(sets[0], specs, args.write_baseline, os.path.basename(args.runs[0]))
        return 0
    if len(sets) == 1:
        summarize(sets[0], specs)
        return 0
    return 1 if compare(sets[0], sets[1], specs) else 0


if __name__ == "__main__":
    sys.exit(main())
