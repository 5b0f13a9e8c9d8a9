#!/usr/bin/env python3
"""Self-tests of the benchmark's harness; no build needed:

    python3 perfbench/test_harness.py
"""

import copy
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # the benchmark never writes into the tree
import harness  # noqa: E402
import run  # noqa: E402

MS = 1_000_000  # ns


def record(stream, due_ms, send_ms, done_ms, ok=1, **fields):
    return {"stream": stream, "due_ns": due_ms * MS, "send_ns": send_ms * MS,
            "done_ns": done_ms * MS, "ok": ok, **fields}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_samples(self):
        self.assertEqual(harness.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(harness.percentile([7], 90), 7)
        self.assertEqual(harness.percentile(list(range(101)), 90), 90)

    def test_samples_beyond_rule(self):
        self.assertEqual(harness.samples_beyond(100, 90), 10)
        self.assertEqual(harness.samples_beyond(99, 90), 9)
        self.assertIsNone(harness.tail_percentile(19))
        self.assertEqual(harness.tail_percentile(20), 50.0)
        self.assertEqual(harness.tail_percentile(99), 50.0)
        self.assertEqual(harness.tail_percentile(100), 90.0)
        self.assertEqual(harness.tail_percentile(1000), 99.0)
        self.assertEqual(harness.tail_percentile(10000), 99.9)

    def test_summary_reports_only_allowed_tail(self):
        summary = harness.summarize([float(x) for x in range(12)])
        self.assertEqual(summary["n"], 12)
        self.assertIsNone(summary["tail_q"])
        self.assertIsNone(summary["tail"])


class OpenLoopTest(unittest.TestCase):
    def test_stall_charges_requests_queued_behind_it(self):
        # 10 requests/s on one connection: the first stalls for 450 ms,
        # the next three are sent only when it returns and take 10 ms each.
        records = [record("static", 0, 0, 450),
                   record("static", 100, 450, 460),
                   record("static", 200, 460, 470),
                   record("static", 300, 470, 480)]
        s = harness.account_requests(records, lambda r: [])["static"]
        self.assertEqual(s["latency_ms"], [450, 360, 270, 180])
        self.assertEqual(s["lag_ms"], [0, 350, 260, 170])
        self.assertEqual(s["failed"], 0)


class FailureTest(unittest.TestCase):
    def test_failed_request_misses_every_limit(self):
        records = [record("mutate", 40 * i, 40 * i, 40 * i + 5)
                   for i in range(9)]
        records.append(record("mutate", 400, 400, 401, ok=0,
                              error="overloaded"))
        s = harness.account_requests(records, lambda r: [])["mutate"]
        self.assertEqual((s["attempted"], s["failed"]), (10, 1))
        self.assertEqual(harness.limit_misses(s["latency_ms"], 1e6), 0.1)
        self.assertGreater(harness.percentile(s["latency_ms"], 95), 1e6)

    def test_forged_run_report_counts_fail(self):
        ref = {"triangles": 10, "methods": {"T1": 100, "E1": 40},
               "plan": {"order": "", "intersect": ""}}
        report = {"methods": [
            {"method": "T1", "triangles": 10, "paper_cost": 100},
            {"method": "E1", "triangles": 10, "paper_cost": 40}]}
        self.assertEqual(harness.check_run_report(report, ref, False), [])
        wrong_triangles = copy.deepcopy(report)
        wrong_triangles["methods"][1]["triangles"] = 11
        wrong_ops = copy.deepcopy(report)
        wrong_ops["methods"][0]["paper_cost"] = 99
        for forged in (wrong_triangles, wrong_ops):
            self.assertTrue(harness.check_run_report(forged, ref, False))

    def test_forged_served_counts_give_nonzero_failed_ratio(self):
        ref = {"triangles": 10, "methods": {"E1": 40}}
        expected = [5, 6, 7]
        good = [record("static", 0, 0, 3, triangles=10, ops=40),
                record("churn", 0, 0, 3, triangles=6, lo=1, hi=2),
                record("mutate", 0, 0, 3, triangles=7, batch=2)]
        forged = [record("static", 10, 10, 13, triangles=10, ops=41),
                  record("churn", 10, 10, 13, triangles=5, lo=1, hi=2),
                  record("mutate", 10, 10, 13, triangles=8, batch=2)]

        def failed_ratio(records):
            streams = harness.account_requests(
                records, lambda r: harness.check_served(r, ref, expected))
            failed = sum(s["failed"] for s in streams.values())
            return failed / sum(s["attempted"] for s in streams.values())

        self.assertEqual(failed_ratio(good), 0)
        self.assertEqual(failed_ratio(good + forged), 0.5)

    def test_parses_cli_outputs(self):
        query = ("static (n=5 m=9): warm graph, cached orientation\n"
                 "  stages: load 0.000s\n"
                 "  E1   triangles 12, paper-metric ops 345, wall 0.001s\n")
        self.assertEqual(harness.parse_query_output(query), (12, 345))
        mutate = ("churn: epoch 1 seq 64  +32 -32 (0 noop)  triangles 77  "
                  "n=10 m=20 overlay=64  0.001s\n")
        self.assertEqual(harness.parse_mutate_output(mutate), 77)
        self.assertIsNone(harness.parse_query_output("query failed"))


class VerdictTest(unittest.TestCase):
    def test_verdicts(self):
        parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        faster = [x * 0.8 for x in parent]
        slower = [x * 1.3 for x in parent]
        noisy = [50.0, 150, 60, 140, 100, 70, 130, 90, 110, 100]
        self.assertEqual(harness.verdict(parent, faster, 0.1, "lower")[0],
                         "improved")
        self.assertEqual(harness.verdict(parent, slower, 0.1, "lower")[0],
                         "worse")
        self.assertEqual(harness.verdict(parent, parent, 0.1, "lower")[0],
                         "unchanged")
        self.assertEqual(harness.verdict(noisy, noisy, 0.1, "lower")[0],
                         "unresolved")
        self.assertEqual(harness.verdict(parent, slower, 0.1, "higher")[0],
                         "improved")


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        if not os.path.exists(os.path.join(run.REPO, "BENCHMARK.json")):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        bench = run.benchmark_spec()
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
