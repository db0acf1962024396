"""Statistics shared by run.py, compare.py and the tests.

Samples are plain lists of numbers. Spans come from the Chrome trace that
the driver writes in a traced run: "ph":"X" events whose args carry the span
index, its parent index (-1 for a root), the update id and whether the span
is on the update's critical path.
"""

import math
import statistics

# Beyond a reported high percentile there must be at least this many samples.
MIN_TAIL_SAMPLES = 10

# Children of an update's root span that its critical path is made of.
CRITICAL_CHILDREN = ("controller.apply", "epoch.adopt", "sim.first_packet")


def percentile(samples, q):
    """q-quantile (0 <= q <= 1), linear between closest ranks."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, percent):
    """Samples strictly above the percent-th percentile rank of n samples."""
    return n - (n * percent + 99) // 100


def tail_percentile(samples, percent=99):
    """The percent-th percentile, or None when fewer than MIN_TAIL_SAMPLES
    samples lie beyond it (a p99 needs at least 1000 samples)."""
    if samples_beyond(len(samples), percent) < MIN_TAIL_SAMPLES:
        return None
    return percentile(samples, percent / 100)


def failure_counts(phase):
    """(attempted, failed) operations of one driver phase. Operations are
    updates plus forwarded packets. A failed update was rejected or never
    became device-visible; a failed packet raised in the interpreter or was
    misrouted according to the oracle replay."""
    attempted = phase["updates"] + phase["packets"]
    failed = phase["failed_updates"] + phase["failed_packets"]
    return attempted, failed


def failed_share(phase):
    attempted, failed = failure_counts(phase)
    return failed / attempted if attempted else 1.0


def spans_from_trace(trace):
    """Complete events of a Chrome trace as dicts with ns times."""
    spans = {}
    for e in trace["traceEvents"]:
        if e.get("ph") != "X":
            continue
        a = e["args"]
        start = round(e["ts"] * 1000)
        spans[a["span"]] = {
            "name": e["name"],
            "start": start,
            "end": start + round(e["dur"] * 1000),
            "parent": a["parent"],
            "update": a["update"],
            "critical": a["critical"],
        }
    return spans


def self_times(spans):
    """Span index -> self time: its duration minus the part of it that its
    children's intervals cover (overlapping children count once)."""
    children = {}
    for i, s in spans.items():
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in spans.items():
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(i, []), key=lambda c: spans[c]["start"]):
            lo = max(spans[c]["start"], s["start"])
            hi = min(spans[c]["end"], s["end"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[i] = s["end"] - s["start"] - covered
    return out


def critical_path_coverage(spans):
    """Update id -> (controller.apply self time + its compile/install
    children + epoch.adopt + sim.first_packet) / the update's root span.
    The first two terms together are controller.apply's whole duration."""
    parts = {}
    for s in spans.values():
        p = s["parent"]
        if p >= 0 and spans[p]["name"] == "update" and s["name"] in CRITICAL_CHILDREN:
            parts[p] = parts.get(p, 0) + s["end"] - s["start"]
    out = {}
    for i, s in spans.items():
        if s["name"] == "update" and s["parent"] < 0:
            dur = s["end"] - s["start"]
            out[s["update"]] = parts.get(i, 0) / dur if dur else 1.0
    return out


def layer_summary(spans, selfs=None):
    """name -> {"n", "p50", "p99", "self_p50", "self_sum", "sum"} in ns."""
    selfs = selfs if selfs is not None else self_times(spans)
    by_name = {}
    for i, s in spans.items():
        d = by_name.setdefault(s["name"], {"durs": [], "selfs": []})
        d["durs"].append(s["end"] - s["start"])
        d["selfs"].append(selfs[i])
    out = {}
    for name, d in by_name.items():
        out[name] = {
            "n": len(d["durs"]),
            "p50": percentile(d["durs"], 0.5),
            "p99": percentile(d["durs"], 0.99),
            "self_p50": percentile(d["selfs"], 0.5),
            "self_sum": sum(d["selfs"]),
            "sum": sum(d["durs"]),
        }
    return out


def median_and_quartiles(values):
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    med, q1, q3 = median_and_quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
