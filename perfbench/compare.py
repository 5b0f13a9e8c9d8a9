#!/usr/bin/env python3
"""Compares two sets of benchmark records: the parent's and a change's.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records run.py writes (its --out-dir), tracing
off. For every workload and end-to-end metric it prints each side's
median and quartiles, the change's win fraction over the pairs (the i-th
parent run against the i-th change run, in run order) and a verdict
against the bound BENCHMARK.json fixes: improved, unchanged, worse or
unresolved (see harness.verdict). Records whose build type or SIMD level
differ measure different programs, and are refused.
"""

import argparse
import glob
import json
import os
import sys

sys.dont_write_bytecode = True  # the benchmark never writes into the tree
import harness  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    records = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            record = json.load(f)
        if record["trace"] == 0:
            records.append(record)
    return sorted(records, key=lambda r: r["started"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    builds = {(r["provenance"]["build_type"], r["provenance"]["simd_level"])
              for r in parent + change}
    if len(builds) > 1:
        print(f"refusing to pair records of different builds "
              f"(build type, SIMD level): {sorted(builds)}", file=sys.stderr)
        return 2

    print(f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'wins':>5s} {'failed':>7s}  "
          f"verdict")
    workloads = sorted({r["workload"] for r in parent}
                       & {r["workload"] for r in change})
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        failed = f"{sum(r['failed'] for r in p_runs)}/" \
                 f"{sum(r['failed'] for r in c_runs)}"
        for metric in metrics:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            verdict, wins = harness.verdict(p, c, metric["bound"],
                                            metric["better"])
            pq, cq = harness.quartiles(p), harness.quartiles(c)
            print(f"{workload:15s} {name:12s} "
                  f"{pq[1]:>11.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(60)
                  + f"{cq[1]:>11.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(31)
                  + f"{wins:5.2f} {failed:>7s}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
