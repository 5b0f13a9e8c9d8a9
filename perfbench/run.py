#!/usr/bin/env python3
"""The trilist benchmark: four workloads through the program's own front
ends, and a traced per-layer run.

    python3 perfbench/run.py --workload cli_text --seed 1 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, one table

End-to-end runs (--trace 0) drive `trilist_cli run` and `trilist_cli
serve` as child processes and read wall time, CPU time and peak RSS from
wait4. The traced run (--trace 1) times calls into each layer's public
functions from the benchmark's probe (probe.cpp), writes the spans as
Chrome JSON under .bench_build/traces/, and adds the daemon's own
per-request breakdown from a served session. README.md has the workload
table, the metric map and the seeds.

Run it from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds. Every run configures and builds into .bench_build/ (the
first one builds everything, later ones only what changed). Inputs are
generated from --seed into a private directory under .bench_build/tmp/
that is removed on every exit path. The last line of standard output is
the result object; the full record, with samples and provenance, goes to
--out-dir (default .bench_build/results/).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True  # the benchmark never writes into the tree
import harness  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
BUILD = os.path.join(REPO, ".bench_build")
CLI = os.path.join(BUILD, "trilist", "tools", "trilist_cli")
PROBE = os.path.join(BUILD, "perfbench_probe")

BUILD_JOBS = 4
SETUP_REPS = 3          # setup_s is the median of this many set-ups
MIN_RUNS = 3            # timed CLI runs per workload, even past --seconds
CHILD_TIMEOUT_S = 60
DRAIN_TIMEOUT_S = 20
BATCH = 64              # edges per mutation batch
SWEEP_BATCHES = 40      # batches the traced run replays on a CLI graph
PROBE_THREADS = 4       # parallel-engine width in the traced run

# The measuring host's speed drifts by up to half over minutes (README,
# "Limits of the measuring host"), and every timing drifts with it. An
# end-to-end run times the probe's calibration kernel CALIB_SAMPLES times
# before the workload and again after it, and scales the SCALED metrics
# by CALIB_REF_S ÷ the median kernel time: they read as on a host where
# the kernel takes CALIB_REF_S. The measured values stay in the record.
CALIB_SAMPLES = 8
CALIB_REF_S = 0.17
SCALED = ("setup_s", "latency_ms", "cpu_ms")

# Generated graphs: the probe's `gen` arguments, and an offset that gives
# each graph its own seed for one --seed.
GRAPHS = {
    "pareto": (["pareto", "--n", "100000", "--alpha", "1.5"], 1),
    "dense": (["gnp", "--n", "1000", "--p", "0.5"], 2),
    "static": (["pareto", "--n", "20000", "--alpha", "1.7"], 3),
    "churn": (["pareto", "--n", "10000", "--alpha", "1.7"], 4),
}
MUTATION_SEED_OFFSET = 5

# The daemon's open loop: fixed requests per second on each stream.
RATES = {"static": 16.0, "churn": 8.0, "mutate": 25.0}
SERVE_WORKERS = 2
# Latency limits the record counts misses against; a failed request
# always misses.
LIMITS_MS = {"static": 250.0, "churn": 500.0, "mutate": 250.0}

# tlg_orders: None runs on the text edge list; otherwise the graph is
# converted to `.tlg` in set-up, embedding these orientations ("" = none).
CLI_WORKLOADS = {
    "cli_text": {
        "graph": "pareto", "tlg_orders": None,
        "ref": ["--methods", "T1,E1"],
        "args": ["--methods", "T1,E1", "--order", "D", "--threads", "1"],
    },
    "cli_tlg_auto": {
        "graph": "pareto", "tlg_orders": "D", "ref": ["--auto"],
        "args": ["--methods", "auto", "--order", "auto", "--intersect",
                 "auto", "--threads", "1"],
    },
    "dense_parallel": {
        "graph": "dense", "tlg_orders": "",
        "ref": ["--methods", "fundamental"],
        "args": ["--methods", "fundamental", "--order", "D", "--threads",
                 "4"],
    },
}
WORKLOADS = [*CLI_WORKLOADS, "serve_mixed"]

E2E_UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "cpu_ms": "ms",
    "peak_rss_mb": "MB",
}
METHODS = ("T1", "T2", "E1", "E4")
PER_LAYER_UNITS = {
    "graph.ingest_s": "s",
    "graph.ingest_edges_per_s": "1/s",
    "graph.tlg_open_s": "s",
    "run.plan_model_s": "s",
    "run.plan_resolve_s": "s",
    "run.plan_candidates": "count",
    "run.plan_share_of_list": "ratio",
    "cost.predicted_ops_us": "us",
    "order.labels_s": "s",
    "order.orient_s": "s",
    "algo.arcs_s": "s",
    **{f"algo.{m}_{key}": unit for m in METHODS
       for key, unit in (("s", "s"), ("ops", "count"),
                         ("ns_per_op", "ns/op"))},
    "algo.triangles": "count",
    **{f"algo.par_{m}_s": "s" for m in METHODS},
    "algo.par_speedup": "ratio",
    "algo.par_cpu_ratio": "ratio",
    "algo.par_rss_delta_mb": "MB",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.churn_orient_ms": "ms",
    "serve.orientation_cached_ratio": "ratio",
    "serve.mutate_server_ms": "ms",
    "serve.compactions": "count",
    **{f"serve.{stream}_p{q}_ms": "ms"
       for stream in ("static_query", "churn_query", "mutate")
       for q in (50, 90)},
    "dyn.apply_ms": "ms",
    "dyn.materialize_ms": "ms",
    "dyn.comparisons_per_edge": "cmp/edge",
    "dyn.predicted_ops_per_edge": "ops/edge",
    "obs.trace_overhead_ratio": "ratio",
    "loadgen.lag_p90_ms": "ms",
}


class BenchError(Exception):
    """The benchmark could not run, as opposed to an operation failing."""


def benchmark_spec():
    """BENCHMARK.json: the workloads, metrics, bounds and run length."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures .bench_build/ and brings both binaries up to date. The
    configure step runs every time: it stamps the git hash into the
    build's provenance, so a record never carries an earlier commit's.
    Build output goes to stderr: stdout's last line is the result."""
    steps = [["cmake", "-S", BENCH, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--parallel", str(BUILD_JOBS),
              "--target", "trilist_cli", "perfbench_probe"]]
    for step in steps:
        done = subprocess.run(step, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


class Run:
    """One benchmark run: its private temporary directory, every child
    process it started and its count of checked operations. Leaving the
    `with` block kills and reaps any child still running and removes the
    directory, on every exit path."""

    def __init__(self):
        os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-",
                                    dir=os.path.join(BUILD, "tmp"))
        self.children = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in list(self.children):
            kill(proc)
            self.reap(proc, DRAIN_TIMEOUT_S)
        shutil.rmtree(self.tmp, ignore_errors=True)

    def path(self, name):
        return os.path.join(self.tmp, name)

    def check(self, errors, what):
        """Counts one checked operation; a non-empty `errors` fails it."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{what}: {'; '.join(errors)}")
            log(f"FAILED {what}: {'; '.join(errors)}")
        return not errors

    def spawn(self, args, name):
        """Starts a child in the temporary directory, its output going to
        <name>.out and <name>.err there."""
        with open(self.path(name + ".out"), "wb") as out, \
                open(self.path(name + ".err"), "wb") as err:
            proc = subprocess.Popen(args, cwd=self.tmp,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
        self.children.append(proc)
        return proc

    def reap(self, proc, timeout):
        """Waits for `proc`; returns (exit code, rusage). The exit code is
        None when the child outlived `timeout` and was killed."""
        expired = threading.Event()

        def expire():
            expired.set()
            kill(proc)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        self.children.remove(proc)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (None if expired.is_set() else proc.returncode), usage

    def run_child(self, args, name, timeout=CHILD_TIMEOUT_S):
        """Runs a child to the end: (exit code or None, wall s, rusage)."""
        start = time.perf_counter()
        proc = self.spawn(args, name)
        code, usage = self.reap(proc, timeout)
        return code, time.perf_counter() - start, usage

    def output(self, name, stream="out"):
        with open(self.path(f"{name}.{stream}"), encoding="utf-8",
                  errors="replace") as f:
            return f.read()

    def probe(self, args, name):
        """Runs the probe; returns the JSON object it prints last."""
        code, _, _ = self.run_child([PROBE, *args], name, timeout=150)
        if code != 0:
            raise BenchError(f"probe {args[0]} exited {code}: "
                             f"{self.output(name, 'err')[-400:]}")
        return json.loads(self.output(name).strip().splitlines()[-1])


def kill(proc, sig=signal.SIGKILL):
    """Signals a child that has not been reaped yet (a zombie included)."""
    try:
        os.kill(proc.pid, sig)
    except ProcessLookupError:
        pass


def exit_errors(code):
    if code == 0:
        return []
    return ["timed out" if code is None else f"exit code {code}"]


# ------------------------------------------------------------- inputs

def make_graph(run, graph, seed):
    """Generates one of GRAPHS from --seed as a text edge list."""
    args, offset = GRAPHS[graph]
    path = run.path(graph + ".txt")
    run.probe(["gen", *args, "--seed", str(seed * 8 + offset), "--out",
               path], "gen-" + graph)
    return path


def make_churn(run, text, seed, batches, name):
    """Mutation batches for `text` and the triangle count at each epoch."""
    ops, expected = run.path(name + ".log"), run.path(name + ".expected")
    run.probe(["churn", "--in", text, "--seed",
               str(seed * 8 + MUTATION_SEED_OFFSET), "--batches",
               str(batches), "--batch-size", str(BATCH), "--out", ops,
               "--expected", expected], name)
    with open(expected) as f:
        return ops, [int(line) for line in f]


def convert(run, text, tlg, orders):
    args = [CLI, "convert", "--in", text, "--out", tlg]
    if orders:
        args += ["--orders", orders]
    code, _, _ = run.run_child(args, "convert")
    run.check(exit_errors(code), "trilist_cli convert")


# ---------------------------------------------------------- CLI runs

def cli_run(run, args, ref, planned):
    """One `trilist_cli run`, checked against the reference."""
    code, wall, usage = run.run_child(args, "run")
    errors = exit_errors(code)
    if not errors:
        try:
            errors = harness.check_run_report(json.loads(run.output("run")),
                                              ref, planned)
        except (ValueError, KeyError) as e:
            errors = [f"unreadable report: {e!r}"]
    ok = run.check(errors, "trilist_cli run")
    return {"wall_ms": wall * 1e3 if ok else harness.FAILED_LATENCY_MS,
            "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1e3,
            "rss_mb": usage.ru_maxrss / 1024.0}


def cli_workload(run, name, seed, seconds):
    spec = CLI_WORKLOADS[name]
    text = make_graph(run, spec["graph"], seed)
    ref = run.probe(["ref", "--in", text, *spec["ref"]], "ref")
    planned = spec["ref"] == ["--auto"]
    on_text = spec["tlg_orders"] is None
    target = text if on_text else run.path("graph.tlg")
    args = [CLI, "run", "--in", target, "--report", "json", *spec["args"]]

    setup = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        if not on_text:
            convert(run, text, target, spec["tlg_orders"])
        cli_run(run, args, ref, planned)  # the discarded warm-up run
        setup.append(time.perf_counter() - start)

    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        runs.append(cli_run(run, args, ref, planned))
    # Other tenants' bursts only ever add time to a run, and they hit most
    # of the runs in some 20 s windows: the lower quartile moves with the
    # program but far less with them than the median (README).
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_ms": harness.quartiles([r["wall_ms"] for r in runs])[0],
        "cpu_ms": harness.quartiles([r["cpu_ms"] for r in runs])[0],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }
    detail = {"setup_s": setup, "runs": runs,
              "tail_percentile": harness.tail_percentile(len(runs))}
    return metrics, detail


# ------------------------------------------------------------ serving

def serve_inputs(run, seed, seconds):
    """The daemon's two graphs, the static graph's reference answer, and
    the mutation batches with the churn graph's count at every epoch."""
    static = make_graph(run, "static", seed)
    churn = make_graph(run, "churn", seed)
    ref = run.probe(["ref", "--in", static, "--methods", "E1"], "ref-static")
    batches = 2 + math.ceil(RATES["mutate"] * seconds)
    ops, expected = make_churn(run, churn, seed, batches, "churn-ops")
    with open(ops) as f:
        first = f.readlines()[:BATCH]
    with open(run.path("batch1.log"), "w") as f:
        f.writelines(first)
    return {"static": static, "churn": churn, "ref": ref, "ops": ops,
            "expected": expected}


def cli_request(run, args, name):
    code, _, _ = run.run_child([CLI, *args, "--unix", "d.sock"], name)
    return run.output(name) if code == 0 else None


def start_daemon(run, inputs):
    """One daemon set-up: convert both graphs, start `trilist_cli serve`,
    wait until it listens, then send one cold query per graph and the
    first mutation batch through the CLI."""
    for graph in ("static", "churn"):
        convert(run, inputs[graph], run.path(graph + ".tlg"), None)
    daemon = run.spawn([CLI, "serve", "--unix", "d.sock", "--graph",
                        "static=static.tlg,churn=churn.tlg", "--workers",
                        str(SERVE_WORKERS)], "daemon")
    deadline = time.perf_counter() + 30
    while "listening on unix:" not in run.output("daemon"):
        if time.perf_counter() > deadline:
            raise BenchError("daemon did not start: "
                             + run.output("daemon", "err")[-400:])
        time.sleep(0.002)

    ref, expected = inputs["ref"], inputs["expected"]
    for graph, want in (("static", (ref["triangles"], ref["methods"]["E1"])),
                        ("churn", None)):
        out = cli_request(run, ["query", "--graph", graph, "--methods", "E1",
                                "--order", "D"], "query")
        got = harness.parse_query_output(out) if out else None
        ok = got is not None and (got == want if want else
                                  got[0] == expected[0])
        run.check([] if ok else [f"got {got}"], f"cold query on {graph}")
    out = cli_request(run, ["mutate", "--graph", "churn", "--ops-file",
                            "batch1.log"], "mutate")
    got = harness.parse_mutate_output(out) if out else None
    run.check([] if got == expected[1] else [f"{got} triangles, want "
                                             f"{expected[1]}"],
              "first mutation batch")
    return daemon


def drain(run, daemon):
    """SIGTERM drain, reaped under a timeout (a timeout is a failed
    operation). Returns the daemon's rusage."""
    kill(daemon, signal.SIGTERM)
    code, usage = run.reap(daemon, DRAIN_TIMEOUT_S)
    run.check(exit_errors(code), "daemon drain")
    return usage


def serve_session(run, inputs, seconds):
    """Daemon set-up (SETUP_REPS times, keeping the last daemon), then
    the open loop for `seconds`, then the drain."""
    setup = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        daemon = start_daemon(run, inputs)
        setup.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPS:
            drain(run, daemon)

    records_path = run.path("records.jsonl")
    rates = [arg for stream, rate in RATES.items()
             for arg in (f"--{stream}-rate", str(rate))]
    code, _, _ = run.run_child(
        [PROBE, "loadgen", "--unix", "d.sock", "--static", "static",
         "--churn", "churn", "--ops", inputs["ops"], "--batch-size",
         str(BATCH), "--first-batch", "1", "--seconds", str(seconds),
         *rates, "--out", records_path], "loadgen", timeout=seconds + 60)
    run.check(exit_errors(code), "load generator")
    usage = drain(run, daemon)

    with open(records_path) as f:
        records = [json.loads(line) for line in f]
    streams = harness.account_requests(
        records,
        lambda r: harness.check_served(r, inputs["ref"], inputs["expected"]))
    for name in RATES:
        if name not in streams:
            raise BenchError(f"no {name} requests were recorded")
    for name, s in streams.items():
        run.attempted += s["attempted"]
        run.failed += s["failed"]
        for error in s["errors"][:5]:
            run.errors.append(f"{name}: {error}")
            log(f"FAILED {name}: {error}")
    return {"setup": setup, "records": records, "streams": streams,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            # The kept daemon also answered its set-up's three requests.
            "served": len(records) + 3}


def stream_summary(streams):
    return {name: {**harness.summarize(s["latency_ms"]),
                   "p90": harness.percentile(s["latency_ms"], 90),
                   "lag_p90_ms": harness.percentile(s["lag_ms"], 90),
                   "limit_ms": LIMITS_MS[name],
                   "limit_miss": harness.limit_misses(s["latency_ms"],
                                                      LIMITS_MS[name]),
                   "attempted": s["attempted"], "failed": s["failed"]}
            for name, s in streams.items()}


def serve_workload(run, seed, seconds):
    session = serve_session(run, serve_inputs(run, seed, seconds), seconds)
    metrics = {
        "setup_s": statistics.median(session["setup"]),
        "latency_ms": harness.percentile(
            session["streams"]["static"]["latency_ms"], 50),
        "cpu_ms": session["cpu_s"] * 1e3 / session["served"],
        "peak_rss_mb": session["rss_mb"],
    }
    detail = {"setup_s": session["setup"],
              "streams": stream_summary(session["streams"])}
    return metrics, detail


def serve_layer_metrics(session):
    """The daemon's per-request breakdown, from the response fields."""
    ok = [r for r in session["records"] if r["ok"]]
    queries = [r for r in ok if r["stream"] != "mutate"]
    churn = [r for r in queries if r["stream"] == "churn"]
    mutates = [r for r in ok if r["stream"] == "mutate"]
    streams = session["streams"]
    med = harness.median_or_zero
    metrics = {
        "serve.queue_wait_ms": med([r["queue_s"] * 1e3 for r in queries]),
        "serve.exec_ms": med([r["exec_s"] * 1e3 for r in queries]),
        "serve.overhead_ms": med([
            (r["done_ns"] - r["send_ns"]) / 1e6
            - (r["queue_s"] + r["exec_s"]) * 1e3 for r in queries]),
        "serve.churn_orient_ms": med([r["orient_s"] * 1e3 for r in churn]),
        "serve.orientation_cached_ratio":
            sum(r["cached"] for r in queries) / max(1, len(queries)),
        "serve.mutate_server_ms": med([r["server_s"] * 1e3 for r in mutates]),
        "serve.compactions": sum(r["compacted"] for r in mutates),
        "loadgen.lag_p90_ms": harness.percentile(
            [lag for s in streams.values() for lag in s["lag_ms"]], 90),
    }
    for stream, key in (("static", "static_query"), ("churn", "churn_query"),
                        ("mutate", "mutate")):
        for q in (50, 90):
            metrics[f"serve.{key}_p{q}_ms"] = harness.percentile(
                streams[stream]["latency_ms"], q)
    return metrics


# ------------------------------------------------------------- traced

def trace_overhead(run, args, ref, planned, budget_s):
    """Traced ÷ untraced wall − 1 of one child `trilist_cli run`: runs
    with and without `--trace`, in pairs until `budget_s` is spent (three
    pairs at least), each run checked; the median of the pairs' ratios.
    Every other pair runs the traced side first, so neither side always
    follows the other."""
    def wall(trace):
        extra = ["--trace", "run-trace.json"] if trace else []
        return cli_run(run, [*args, *extra], ref, planned)["wall_ms"]

    ratios = []
    start = time.perf_counter()
    while len(ratios) < MIN_RUNS or time.perf_counter() - start < budget_s:
        if len(ratios) % 2 == 0:
            off = wall(False)
            on = wall(True)
        else:
            on = wall(True)
            off = wall(False)
        ratios.append(on / off)
    return statistics.median(ratios) - 1.0


def traced_workload(run, name, seed, seconds):
    """The per-layer sweep on the workload's graph, the tracing overhead
    of the workload's own `trilist_cli run` (on serve_mixed: a one-shot
    run of the daemon's churn query), then a served session on the
    serve_mixed inputs for the daemon's own layers."""
    inputs = serve_inputs(run, seed, seconds)
    if name == "serve_mixed":
        text, ops = inputs["churn"], inputs["ops"]
        spec = {"ref": ["--methods", "E1"], "tlg_orders": "",
                "args": ["--methods", "E1", "--order", "D", "--threads",
                         "1"]}
    else:
        spec = CLI_WORKLOADS[name]
        text = make_graph(run, spec["graph"], seed)
        ops, _ = make_churn(run, text, seed, SWEEP_BATCHES, "sweep-ops")
    ref = run.probe(["ref", "--in", text, *spec["ref"]], "ref")
    on_text = spec["tlg_orders"] is None
    tlg = run.path("graph.tlg")
    convert(run, text, tlg, spec["tlg_orders"])
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    trace = os.path.join(BUILD, "traces", f"{name}-seed{seed}.json")
    layers = run.probe(
        ["layers", "--text", text, "--tlg", tlg, "--ops", ops,
         "--batch-size", str(BATCH), "--threads", str(PROBE_THREADS),
         "--triangles", str(ref["triangles"]), "--trace-out", trace],
        "layers")
    run.attempted += int(layers.pop("probe.attempted"))
    run.failed += int(layers.pop("probe.failed"))
    args = [CLI, "run", "--in", text if on_text else tlg, "--report", "json",
            *spec["args"]]
    layers["obs.trace_overhead_ratio"] = trace_overhead(
        run, args, ref, spec["ref"] == ["--auto"], seconds / 2)
    session = serve_session(run, inputs, seconds)
    return ({**layers, **serve_layer_metrics(session)},
            {"trace": trace, "streams": stream_summary(session["streams"])})


# ------------------------------------------------------------- record

def source_digest():
    """sha256 over the program's sources and the benchmark's files: names
    the code measured even where no git history exists."""
    digest = hashlib.sha256()
    paths = [os.path.join(REPO, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def calibrate(run):
    """CALIB_SAMPLES timings of the probe's calibration kernel: fixed work
    that calls no program code, so only the host's speed moves it."""
    return [run.probe(["calib"], "calib")["calib_s"]
            for _ in range(CALIB_SAMPLES)]


def workload_params(name):
    if name == "serve_mixed":
        return {"graphs": {g: GRAPHS[g][0] for g in ("static", "churn")},
                "rates_per_s": RATES, "workers": SERVE_WORKERS,
                "batch_edges": BATCH}
    spec = CLI_WORKLOADS[name]
    return {"graph": GRAPHS[spec["graph"]][0], "run_args": spec["args"],
            "tlg_orders": spec["tlg_orders"]}


def run_workload(name, seed, seconds, trace):
    with Run() as run:
        provenance = run.probe(["version"], "version")
        provenance.update(nproc=os.cpu_count(), source_sha256=source_digest())
        started = time.time()
        if trace:
            metrics, detail = traced_workload(run, name, seed, seconds)
            units = PER_LAYER_UNITS
        else:
            calib = calibrate(run)
            if name == "serve_mixed":
                metrics, detail = serve_workload(run, seed, seconds)
            else:
                metrics, detail = cli_workload(run, name, seed, seconds)
            calib += calibrate(run)
            speed = CALIB_REF_S / statistics.median(calib)
            detail.update(calib_s=calib,
                          measured={key: metrics[key] for key in SCALED})
            for key in SCALED:
                metrics[key] *= speed
            units = E2E_UNITS
        for key in units:
            if not math.isfinite(metrics[key]):
                raise BenchError(f"{key} is not finite: {metrics[key]}")
        result = {
            "correct": run.failed == 0,
            "attempted": max(1, run.attempted),
            "failed": run.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()},
        }
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": trace, "started": started,
                  "provenance": provenance, "params": workload_params(name),
                  "failed_ratio": run.failed / max(1, run.attempted),
                  "errors": run.errors, "detail": detail, **result}
    return result, record


def write_record(record, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{record['workload']}-seed{record['seed']}"
                                 f"-trace{record['trace']}-{time.time_ns()}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="The trilist benchmark (see perfbench/README.md).")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true",
                       help="every workload, tracing off, as one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=os.path.join(BUILD, "results"))
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: children are stopped and the temporary
    # directory removed by Run.__exit__.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = WORKLOADS if args.all else [args.workload]
    trace = 0 if args.all else args.trace
    results = []
    try:
        build()
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds,
                                          trace)
            log(f"{name}: record {write_record(record, args.out_dir)}")
            for key, m in result["metrics"].items():
                log(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
            results.append((name, result))
    except BenchError as e:
        log(f"benchmark error: {e}")
        return 1

    if args.all:
        print(f"{'workload':16s} {'metric':14s} {'value':>14s} unit")
        for name, result in results:
            for key, m in result["metrics"].items():
                print(f"{name:16s} {key:14s} {m['value']:14.6g} {m['unit']}")
            print(f"{name:16s} {'failed_ratio':14s} "
                  f"{result['failed'] / result['attempted']:14.6g} "
                  f"failed/attempted")
    else:
        print(json.dumps(results[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
