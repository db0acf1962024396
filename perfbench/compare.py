#!/usr/bin/env python3
"""Compares two sets of benchmark results metric by metric.

  python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds result lines as `run.py --results FILE` appends them, one
run per line, tagged with the workload. For every end-to-end metric of
BENCHMARK.json and every workload it prints the median and quartiles of both
sides and a verdict:

  unresolved  a side's run-to-run spread (interquartile distance over the
              median) exceeds the bound, and neither side's runs all beat
              the other's
  regression  every new run is worse than every base run (when the spread
              exceeds the bound), or else the new median is worse than the
              base by more than the bound
  improved    every new run beats every base run (when the spread exceeds
              the bound), or else the new median is better by more than the
              base spread and the new run wins at least nine tenths of the
              pairs (i-th vs i-th)
  same        otherwise

Runs whose correctness gates failed are left out of the metrics and counted.
The exit code is 1 when any metric regressed, any new run is incorrect, or
the new runs failed more operations per run than the base runs; else 0.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import stats  # noqa: E402

# A claimed gain must win this share of the paired runs.
MIN_WIN_SHARE = 0.9


def load(lines):
    """workload -> {"metrics": name -> values of correct runs, "runs",
    "incorrect", "failed": failed operations summed over all runs}.
    End-to-end runs only."""
    out = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        r = json.loads(line)
        if r.get("trace"):
            continue
        w = out.setdefault(r["workload"], {"metrics": {}, "runs": 0,
                                           "incorrect": 0, "failed": 0})
        w["runs"] += 1
        w["failed"] += r["failed"]
        if not r["correct"]:
            w["incorrect"] += 1
            continue
        for name, m in r["metrics"].items():
            w["metrics"].setdefault(name, []).append(m["value"])
    return out


def correctness_problems(base, new):
    """Lines describing why the new side's runs cannot be compared, if any."""
    problems = []
    for name, n in sorted(new.items()):
        if n["incorrect"]:
            problems.append("%s: %d of %d new runs failed a correctness gate" %
                            (name, n["incorrect"], n["runs"]))
        b = base.get(name)
        if b and n["failed"] / n["runs"] > b["failed"] / b["runs"]:
            problems.append("%s: %.1f failed operations per new run, %.1f per base run" %
                            (name, n["failed"] / n["runs"], b["failed"] / b["runs"]))
    return problems


def verdict(base, new, bound, better):
    """Verdict for one metric on one workload (see the module docstring)."""
    sign = 1 if better == "higher" else -1
    bmed = stats.median_and_quartiles(base)[0]
    nmed = stats.median_and_quartiles(new)[0]
    gain = sign * (nmed - bmed) / abs(bmed)  # > 0: new is better
    if max(stats.relative_spread(base), stats.relative_spread(new)) > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "improved", gain
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "regression", gain
        return "unresolved", gain
    if gain < -bound:
        return "regression", gain
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if gain > stats.relative_spread(base) and wins >= MIN_WIN_SHARE * len(pairs):
        return "improved", gain
    return "same", gain


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    with open(args.base) as f:
        base = load(f)
    with open(args.new) as f:
        new = load(f)
    problems = correctness_problems(base, new)
    for p in problems:
        print("INCORRECT " + p)
    regressions = 0
    print("%-14s %-26s %-36s %-36s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "gain", "verdict"))
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            b = base.get(name, {}).get("metrics", {}).get(m["name"])
            n = new.get(name, {}).get("metrics", {}).get(m["name"])
            if not b or not n:
                print("%-14s %-26s missing on %s" % (name, m["name"],
                                                     "base" if not b else "new"))
                continue
            v, gain = verdict(b, n, m["bound"], m["better"])
            regressions += v == "regression"
            fmt = lambda xs: "%.4g [%.4g, %.4g] n=%d" % (
                stats.median_and_quartiles(xs) + (len(xs),))
            print("%-14s %-26s %-36s %-36s %+7.1f%%  %s" % (
                name, m["name"], fmt(b), fmt(n), 100 * gain, v))
    return 1 if regressions or problems else 0


if __name__ == "__main__":
    sys.exit(main())
