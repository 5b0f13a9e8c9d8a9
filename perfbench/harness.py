"""Pure helpers of the benchmark, shared by run.py, compare.py and the
self-tests: percentiles and the samples-beyond rule, open-loop request
accounting, output checks and the compare verdict. No I/O here."""

import math
import re
import statistics

# A failed request counts as this late: it misses every latency limit and
# drags every percentile it falls into past any limit.
FAILED_LATENCY_MS = 1e9

# Tail percentiles a timing may be reported at, highest first; one is
# reported only with at least MIN_SAMPLES_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_SAMPLES_BEYOND = 10


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100), linearly interpolated."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie above the q-th percentile."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(n):
    """The highest percentile with MIN_SAMPLES_BEYOND of n samples above
    it, or None when not even the median has that many."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            return q
    return None


def summarize(values):
    """Median and the highest percentile the samples-beyond rule allows,
    with the sample count both rest on."""
    q = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50) if values else None,
        "tail_q": q,
        "tail": percentile(values, q) if q else None,
    }


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def limit_misses(latencies_ms, limit_ms):
    """Share of requests slower than `limit_ms`; failed ones always are."""
    return sum(1 for x in latencies_ms if x > limit_ms) / len(latencies_ms)


def account_requests(records, check):
    """Open-loop accounting, per stream, of the load generator's records
    (dicts with stream, due_ns, send_ns, done_ns and ok). Latency runs
    from the due time, so a stalled request also charges every request
    queued behind it on its connection; lag is how late each request was
    sent. check(record) lists a served record's output errors; a failed
    request (transport, error reply or wrong output) counts as
    FAILED_LATENCY_MS."""
    streams = {}
    for r in records:
        s = streams.setdefault(r["stream"], {
            "latency_ms": [], "lag_ms": [], "attempted": 0, "failed": 0,
            "errors": []})
        errors = check(r) if r["ok"] else [r.get("error", "request failed")]
        s["attempted"] += 1
        s["lag_ms"].append((r["send_ns"] - r["due_ns"]) / 1e6)
        if errors:
            s["failed"] += 1
            s["errors"].extend(errors)
            s["latency_ms"].append(FAILED_LATENCY_MS)
        else:
            s["latency_ms"].append((r["done_ns"] - r["due_ns"]) / 1e6)
    return streams


def check_run_report(report, ref, planned):
    """Output errors of one `trilist_cli run --report json` document
    against the reference: every method's triangles and paper-metric ops,
    and on a planned run the chosen order and backend."""
    errors = []
    got = {m["method"]: m for m in report["methods"]}
    if sorted(got) != sorted(ref["methods"]):
        errors.append(f"methods {sorted(got)}, want {sorted(ref['methods'])}")
    for name, m in got.items():
        if m["triangles"] != ref["triangles"]:
            errors.append(f"{name}: {m['triangles']} triangles, "
                          f"want {ref['triangles']}")
        want_ops = ref["methods"].get(name)
        if want_ops is not None and m["paper_cost"] != want_ops:
            errors.append(f"{name}: {m['paper_cost']} ops, want {want_ops}")
    if planned:
        for key in ("order", "intersect"):
            if report["plan"][key] != ref["plan"][key]:
                errors.append(f"plan {key} {report['plan'][key]}, "
                              f"want {ref['plan'][key]}")
    return errors


def check_served(record, static_ref, expected):
    """Output errors of one served request. `expected[e]` is the churn
    graph's triangle count at epoch e (after e mutation batches)."""
    stream = record["stream"]
    if stream == "static":
        errors = []
        if record["triangles"] != static_ref["triangles"]:
            errors.append(f"static: {record['triangles']} triangles, "
                          f"want {static_ref['triangles']}")
        if int(record["ops"]) != static_ref["methods"]["E1"]:
            errors.append(f"static: {record['ops']} ops, "
                          f"want {static_ref['methods']['E1']}")
        return errors
    if stream == "churn":
        lo, hi = record["lo"], record["hi"]
        if record["triangles"] not in expected[lo:hi + 1]:
            return [f"churn: {record['triangles']} triangles match no epoch "
                    f"in [{lo}, {hi}]"]
        return []
    if record["triangles"] != expected[record["batch"]]:
        return [f"mutate batch {record['batch']}: {record['triangles']} "
                f"triangles, want {expected[record['batch']]}"]
    return []


QUERY_LINE = re.compile(r"^\s*E1\s+triangles (\d+), paper-metric ops (\d+)",
                        re.M)
MUTATE_LINE = re.compile(r"\striangles (\d+)\s")


def parse_query_output(text):
    """(triangles, ops) of E1 from `trilist_cli query` output, or None."""
    m = QUERY_LINE.search(text)
    return (int(m.group(1)), int(m.group(2))) if m else None


def parse_mutate_output(text):
    """The triangle count `trilist_cli mutate` reports, or None."""
    m = MUTATE_LINE.search(text)
    return int(m.group(1)) if m else None


def verdict(parent, change, bound, better):
    """The verdict on one workload and metric, and the
    change's win fraction over the pairs (parent[i], change[i]); ties
    count for neither side.

    improved:   the change wins at least 9 in 10 pairs and the medians
                differ by more than the parent's interquartile distance;
    worse:      the change's median is worse by more than `bound` (a
                share of the parent's median);
    unresolved: the parent's own spread is wider than `bound`, unless
                every change run beats every parent run;
    unchanged:  otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    if win_fraction >= 0.9 and abs(c_med - p_med) > q3 - q1:
        return "improved", win_fraction
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse", win_fraction
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if q3 - q1 > bound * abs(p_med) and not every_run_better:
        return "unresolved", win_fraction
    return "unchanged", win_fraction
