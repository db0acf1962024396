#!/usr/bin/env python3
"""Update-to-forward benchmark: builds the driver from this checkout's
sources, runs one workload and prints its metrics.

  python3 perfbench/run.py --workload churn_switch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Everything it builds and writes goes under
.bench_build/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see README.md). The
exit code is 0 only when every correctness gate passed.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
WORKLOADS = ("churn_switch", "respec_scion", "fib_forward")
# The driver itself must finish well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170
# Address-space cap for the driver: a workload that blows up fails alone
# instead of exhausting a shared machine's memory.
DRIVER_MEMORY_BYTES = 6 << 30

# Layers timed in the traced run, by span name.
LAYERS = (
    "controller.apply", "flay.analyze", "flay.encode", "runtime.normalize",
    "runtime.config_apply", "controller.journal", "flay.specialize",
    "flay.recheck", "tofino.compile", "controller.install", "epoch.adopt",
    "flay.migrate", "sim.first_packet", "sim.packet",
)
# Layers timed on shadow objects fed the same updates, off the critical path.
SHADOW_LAYERS = ("flay.analyze", "flay.encode", "runtime.normalize",
                 "runtime.config_apply", "controller.journal",
                 "flay.specialize", "flay.recheck")
# A traced update passes the coverage gate when its critical-path children
# sum to within this share of its root span.
COVERAGE_TOLERANCE = 0.05
# Share of traced updates that must pass the coverage gate.
COVERAGE_MIN_SHARE = 0.99


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no Flay sources next to perfbench/; "
                         "run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise SystemExit("perfbench: build failed")


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (DRIVER_MEMORY_BYTES, DRIVER_MEMORY_BYTES))


def run_driver(workload, seed, seconds, trace, updates=None):
    """Runs the driver; returns (raw result dict, trace path or None)."""
    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-s%d-t%d-p%d" % (workload, seed, trace, os.getpid())
    raw_path = os.path.join(out_dir, tag + ".json")
    trace_path = os.path.join(out_dir, workload + ".trace.json") if trace else None
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", raw_path, "--state-dir", os.path.join(out_dir, tag + ".state")]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    if updates is not None:
        cmd += ["--updates", str(updates)]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          preexec_fn=limit_memory, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("perfbench: driver exited with %d" % proc.returncode)
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)
    return raw, trace_path


def ratio(num, den):
    return num / den if den else 0.0


def shape_line(raw, phase):
    c = phase["counters"]
    return ("shape: %d updates, entries %s, controller.recompile_share %.4f, "
            "check.cache_hit_ratio %.4f" % (
                phase["updates"], json.dumps(phase["shape"], sort_keys=True),
                ratio(phase["recompiles"], phase["updates"]),
                ratio(c["cache.hits"], c["cache.hits"] + c["cache.misses"])))


def end_to_end(raw):
    """End-to-end metrics of the untraced phase: name -> (value, unit)."""
    p = raw["untraced"]
    u2f = p["update_to_forward_ns"]
    p99 = stats.tail_percentile(u2f, 99)
    if p99 is None:
        raise SystemExit("perfbench: %d timed updates cannot support a p99 "
                         "with %d samples beyond it" % (len(u2f), stats.MIN_TAIL_SAMPLES))
    busy_ns = p["wall_ns"] - p["gen_ns"] - p["verify_ns"] - p["shadow_ns"]
    committed = p["updates"] - p["failed_updates"]
    return {
        "update_to_forward_p50_us": (stats.percentile(u2f, 0.5) / 1e3, "us"),
        "update_to_forward_p99_us": (p99 / 1e3, "us"),
        "updates_per_s": (committed / (busy_ns / 1e9), "1/s"),
        "pkts_per_s": (p["packets"] / (p["process_ns"] / 1e9), "1/s"),
        "setup_s": (stats.percentile(raw["setup_ns"], 0.5) / 1e9, "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw, trace_path):
    """Per-layer metrics from the traced run and the untraced counts, plus
    the coverage of the critical path: (metrics, share of updates covered)."""
    plain, traced = raw["untraced"], raw["traced"]
    with open(trace_path) as f:
        spans = stats.spans_from_trace(json.load(f))
    selfs = stats.self_times(spans)
    layers = stats.layer_summary(spans, selfs)
    roots = {"update": layers.get("update", {}).get("sum", 0),
             "shadow": layers.get("shadow", {}).get("sum", 0)}
    m = {}
    for name in LAYERS:
        s = layers.get(name)
        m[name + "_ns.p50"] = (s["p50"] if s else 0.0, "ns")
        m[name + "_ns.p99"] = (s["p99"] if s else 0.0, "ns")
        track_sum = roots["update"] if name not in SHADOW_LAYERS else roots["shadow"]
        m[name + ".self_share"] = (ratio(s["self_sum"], track_sum) if s else 0.0,
                                   "ratio")
    c = plain["counters"]
    u2f_plain = stats.percentile(plain["update_to_forward_ns"], 0.5)
    u2f_traced = stats.percentile(traced["update_to_forward_ns"], 0.5)
    m.update({
        "sim.policy_drop_share": (ratio(plain["policy_drops"], plain["packets"]), "ratio"),
        "controller.recompile_share": (ratio(plain["recompiles"], plain["updates"]), "ratio"),
        "check.cache_hit_ratio": (ratio(c["cache.hits"], c["cache.hits"] + c["cache.misses"]),
                                  "ratio"),
        "check.solver_queries": (c["sat.queries"], "count"),
        "smt.witness_verdicts": (c["smt.witness_verdicts"], "count"),
        "smt.remembered_constants": (c["smt.remembered_constants"], "count"),
        "smt.incremental_fallbacks": (c["smt.incremental_fallbacks"], "count"),
        "sat.conflicts": (c["sat.conflicts"], "count"),
        "expr.arena_nodes": (plain["arena_nodes"], "count"),
        "flay.bulk_updates_per_s": (ratio(raw["bulk"]["updates"], raw["bulk"]["ns"] / 1e9),
                                    "1/s"),
        "flay.bulk_bypass_share": (ratio(raw["bulk"]["bypassed"], raw["bulk"]["updates"]),
                                   "ratio"),
        "bench.gen_share": (ratio(plain["gen_ns"], plain["wall_ns"]), "ratio"),
        "bench.trace_overhead": ((u2f_traced - u2f_plain) / u2f_plain, "ratio"),
    })
    coverage = stats.critical_path_coverage(spans)
    covered = sum(1 for v in coverage.values() if abs(1 - v) <= COVERAGE_TOLERANCE)
    return m, layers, ratio(covered, len(coverage))


def intended_layer_checks(workload, m, layers):
    """Whether the traced run shows the workload loading its layer."""
    if workload == "churn_switch":
        # encodeTable normalizes every precise table it encodes, so
        # flay.encode already holds runtime.normalize; adding the two would
        # count normalize twice.
        enc = layers.get("flay.encode", {}).get("sum", 0)
        analyze = layers.get("flay.analyze", {}).get("sum", 0)
        return "flay.encode (normalize included) = %.2f of flay.analyze" % \
            ratio(enc, analyze), enc > analyze - enc
    if workload == "respec_scion":
        share = m["controller.recompile_share"][0]
        return "controller.recompile_share = %.3f" % share, share >= 0.2
    packet = layers.get("sim.packet", {}).get("sum", 0) + \
        layers.get("sim.first_packet", {}).get("sum", 0)
    control = layers.get("controller.apply", {}).get("sum", 0) + \
        layers.get("epoch.adopt", {}).get("sum", 0)
    return ("sim packet time %.0f ms vs control-plane time %.0f ms" %
            (packet / 1e6, control / 1e6)), packet > control


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="also append the result line, tagged "
                    "with workload and seed, to this JSONL file (for compare.py)")
    args = ap.parse_args()

    build()
    raw, trace_path = run_driver(args.workload, args.seed, args.seconds, args.trace)
    plain = raw["untraced"]
    attempted, failed = stats.failure_counts(plain)
    gates = []
    if failed:
        gates.append("%d failed operation(s): %s" % (failed, "; ".join(plain["errors"][:4])))
    if not raw["consistent"]:
        gates.append("incremental-vs-scratch consistency check failed")
    if not raw["digests_match"]:
        gates.append("state digest differs between the untraced and the traced run")

    print("%s seed %d: %d updates, %d packets (%d replayed by the oracle), "
          "failed_share %.6f (%d of %d operations)" % (
              args.workload, args.seed, plain["updates"], plain["packets"],
              plain["oracle_samples"], stats.failed_share(plain), failed, attempted))
    print(shape_line(raw, plain))
    if args.trace:
        metrics, layers, covered = per_layer(raw, trace_path)
        print("layer                    n        p50 ns        p99 ns   self p50 ns")
        for name in ("update",) + LAYERS + ("shadow",):
            s = layers.get(name)
            if s:
                print("%-20s %6d %13.0f %13.0f %13.0f%s" % (
                    name, s["n"], s["p50"], s["p99"], s["self_p50"],
                    "  (shadow, off the critical path)" if name in SHADOW_LAYERS + ("shadow",) else ""))
        print("critical path covers its root within %d%% on %.4f of traced updates" % (
            COVERAGE_TOLERANCE * 100, covered))
        print("bench.trace_overhead %.4f" % metrics["bench.trace_overhead"][0])
        what, ok = intended_layer_checks(args.workload, metrics, layers)
        print("intended layer: %s (%s)" % (what, "met" if ok else "NOT MET"))
        print("trace: %s (Chrome trace-event JSON, opens in Perfetto)" %
              os.path.relpath(trace_path, os.getcwd()))
        if covered < COVERAGE_MIN_SHARE:
            gates.append("critical-path spans cover their root on only %.4f of updates" % covered)
    else:
        metrics = end_to_end(raw)
        for name, (value, unit) in metrics.items():
            extra = " (%d samples, %d beyond p99)" % (
                len(plain["update_to_forward_ns"]),
                stats.samples_beyond(len(plain["update_to_forward_ns"]), 99)) \
                if name == "update_to_forward_p99_us" else ""
            print("%-26s %14.4f %s%s" % (name, value, unit, extra))
    for g in gates:
        log("GATE FAILED: " + g)

    result = {
        "correct": not gates,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.results:
        with open(args.results, "a") as f:
            f.write(json.dumps(dict(result, workload=args.workload, seed=args.seed,
                                    trace=args.trace)) + "\n")
    print(json.dumps(result))
    return 0 if not gates else 1


if __name__ == "__main__":
    sys.exit(main())
