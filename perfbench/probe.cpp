/// \file probe.cpp
/// Benchmark-side helper of perfbench/run.py. It makes the inputs, the
/// reference outputs they are checked against, the daemon's open-loop
/// load and the traced per-layer sweep. The end-to-end timings never come
/// from here: run.py times the program's own front end (`trilist_cli run`
/// and `trilist_cli serve`) as child processes.
///
///   probe gen pareto --n N --alpha A --seed S --out FILE
///   probe gen gnp --n N --p P --seed S --out FILE
///       Writes a generated graph as a text edge list; prints {"n","m"}.
///
///   probe ref --in FILE (--methods CSV | --auto)
///       Reference answer for `trilist_cli run` on FILE under theta_D (or
///       the planner with --auto): a triangle count from an independent
///       kernel plus each method's paper-metric op count.
///
///   probe churn --in FILE --seed S --batches B --batch-size K --out LOG
///               --expected FILE
///       Mutation batches of K edges, half deletes of existing edges and
///       half inserts of absent ones (so m stays flat), and the exact
///       triangle count after each batch (line 0: before any).
///
///   probe loadgen --unix SOCK --static NAME --churn NAME --ops LOG
///                 --batch-size K --first-batch F --seconds T
///                 --static-rate R --churn-rate R --mutate-rate R --out FILE
///       Open loop over three connections, one per stream; one JSON line
///       per request with its due, send and done times.
///
///   probe layers --text FILE --tlg FILE --ops LOG --batch-size K
///                --threads N --triangles T --trace-out FILE
///       The traced run: times calls into each layer's public functions,
///       records them as obs::TraceSpan spans, writes the Chrome JSON and
///       prints the per-layer metrics as one JSON object. The parallel
///       engine is measured on N threads.
///
///   probe calib
///       Times a fixed kernel that calls no library code; run.py scales
///       its end-to-end times by it to cancel the host's speed drift.
///
///   probe version
///       Build provenance of the library the probe and the CLI link.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/algo/cost.h"
#include "src/algo/parallel_engine.h"
#include "src/algo/registry.h"
#include "src/cost/cost_model.h"
#include "src/degree/degree_stats.h"
#include "src/dyn/dyn_graph.h"
#include "src/dyn/mutation_log.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/binfmt.h"
#include "src/graph/edge_set.h"
#include "src/graph/ingest.h"
#include "src/graph/io.h"
#include "src/obs/trace.h"
#include "src/run/planner.h"
#include "src/run/runner.h"
#include "src/serve/client.h"
#include "src/util/build_info.h"
#include "src/util/cpu_features.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {

using namespace trilist;

/// `--key value` pairs after the subcommand words; a bare `--key` is a
/// switch.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      const std::string key = argv[i] + 2;
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? "" : it->second;
  }
  double Num(const std::string& key, double def) const {
    const std::string v = Get(key);
    return v.empty() ? def : std::strtod(v.c_str(), nullptr);
  }
  uint64_t Uint(const std::string& key, uint64_t def) const {
    const std::string v = Get(key);
    return v.empty() ? def : std::strtoull(v.c_str(), nullptr, 10);
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "probe: %s\n", message.c_str());
  return 1;
}

bool ParseMethods(const std::string& csv, std::vector<Method>* out) {
  if (csv == "fundamental") {
    *out = FundamentalMethods();
    return true;
  }
  std::istringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const auto& all = AllMethods();
    const auto it = std::find_if(all.begin(), all.end(), [&](Method m) {
      return token == MethodName(m);
    });
    if (it == all.end()) return false;
    out->push_back(*it);
  }
  return !out->empty();
}

/// The orientation every pinned workload runs under (`--order D`; the
/// CLI's default --seed is 1, which theta_D ignores).
const OrientSpec kThetaD{PermutationKind::kDescending, 1};

/// Flat metric map printed as one JSON object, keys in insertion order.
class Metrics {
 public:
  void Set(const std::string& key, double value) {
    items_.emplace_back(key, value);
  }
  void Print() const {
    std::printf("{");
    for (size_t i = 0; i < items_.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  items_[i].first.c_str(), items_[i].second);
    }
    std::printf("}\n");
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ---------------------------------------------------------------- gen

int CmdGen(const std::string& kind, const Flags& flags) {
  const std::string out = flags.Get("out");
  if (out.empty()) return Fail("gen: --out FILE is required");
  Rng rng(flags.Uint("seed", 1));
  Result<Graph> graph = Status::InvalidArgument("gen: unknown kind " + kind);
  if (kind == "pareto") {
    GenerateSpec spec;
    spec.n = flags.Uint("n", 10000);
    spec.alpha = flags.Num("alpha", 1.7);
    graph = GenerateGraph(spec, &rng);
  } else if (kind == "gnp") {
    graph = GenerateGnp(flags.Uint("n", 1000), flags.Num("p", 0.5), &rng);
  }
  if (!graph.ok()) return Fail(graph.status().ToString());
  const Status written = WriteEdgeListFile(*graph, out);
  if (!written.ok()) return Fail(written.ToString());
  std::printf("{\"n\": %zu, \"m\": %zu}\n", graph->num_nodes(),
              graph->num_edges());
  return 0;
}

// ---------------------------------------------------------------- ref

int CmdRef(const Flags& flags) {
  Result<Graph> graph = ReadEdgeListFile(flags.Get("in"));
  if (!graph.ok()) return Fail(graph.status().ToString());
  RunSpec spec;
  spec.source = GraphSource::FromGraph(*graph);
  spec.orient = kThetaD;
  if (flags.Has("auto")) {
    spec.plan = PlanFlags{true, true, true};
  } else {
    spec.methods.clear();
    if (!ParseMethods(flags.Get("methods"), &spec.methods)) {
      return Fail("ref: bad --methods");
    }
  }
  Result<RunReport> report = RunPipeline(spec);
  if (!report.ok()) return Fail(report.status().ToString());
  // The triangle reference comes from a kernel no CLI run uses: the
  // dynamic layer's identity-order recount.
  const uint64_t triangles = dyn::CountTriangles(*graph);
  std::printf("{\"triangles\": %" PRIu64 ", \"methods\": {", triangles);
  for (size_t i = 0; i < report->methods.size(); ++i) {
    const MethodReport& mr = report->methods[i];
    std::printf("%s\"%s\": %" PRId64, i == 0 ? "" : ", ",
                MethodName(mr.method), mr.ops.PaperCost());
  }
  std::printf("}, \"plan\": {\"order\": \"%s\", \"intersect\": \"%s\"}}\n",
              report->plan.order.c_str(), report->plan.intersect.c_str());
  return 0;
}

// -------------------------------------------------------------- churn

uint64_t EdgeKey(NodeId u, NodeId v) {
  return PackArc(std::min(u, v), std::max(u, v));
}

int CmdChurn(const Flags& flags) {
  Result<Graph> graph = ReadEdgeListFile(flags.Get("in"));
  if (!graph.ok()) return Fail(graph.status().ToString());
  const size_t batches = flags.Uint("batches", 100);
  const size_t batch_size = flags.Uint("batch-size", 64);
  const uint64_t n = graph->num_nodes();
  if (n < 3 || batch_size == 0 || batch_size % 2 != 0) {
    return Fail("churn: need n >= 3 and an even --batch-size");
  }

  Rng rng(flags.Uint("seed", 1));
  std::vector<Edge> edges = graph->EdgeList();
  std::unordered_set<uint64_t> present;
  present.reserve(edges.size() * 2);
  for (const Edge& e : edges) present.insert(EdgeKey(e.first, e.second));

  std::vector<dyn::EdgeMutation> ops;
  ops.reserve(batches * batch_size);
  for (size_t b = 0; b < batches; ++b) {
    for (size_t i = 0; i < batch_size / 2; ++i) {
      const size_t pick = rng.NextBounded(edges.size());
      const Edge e = edges[pick];
      edges[pick] = edges.back();
      edges.pop_back();
      present.erase(EdgeKey(e.first, e.second));
      ops.push_back({e.first, e.second, false});
    }
    for (size_t i = 0; i < batch_size / 2;) {
      const auto u = static_cast<NodeId>(rng.NextBounded(n));
      const auto v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v || !present.insert(EdgeKey(u, v)).second) continue;
      edges.emplace_back(u, v);
      ops.push_back({u, v, true});
      ++i;
    }
  }
  const Status written = dyn::WriteMutationLog(ops, flags.Get("out"));
  if (!written.ok()) return Fail(written.ToString());

  dyn::DynGraph dyn_graph = dyn::DynGraph::FromBase(*graph);
  std::FILE* expected = std::fopen(flags.Get("expected").c_str(), "w");
  if (expected == nullptr) return Fail("churn: cannot open --expected");
  std::fprintf(expected, "%" PRIu64 "\n", dyn_graph.triangles());
  for (size_t b = 0; b < batches; ++b) {
    const Result<dyn::ApplyResult> applied = dyn_graph.Apply(
        std::span<const dyn::EdgeMutation>(ops.data() + b * batch_size,
                                           batch_size));
    if (!applied.ok()) {
      std::fclose(expected);
      return Fail(applied.status().ToString());
    }
    std::fprintf(expected, "%" PRIu64 "\n", dyn_graph.triangles());
  }
  if (std::fclose(expected) != 0) return Fail("churn: short write");
  std::printf("{\"batches\": %zu}\n", batches);
  return 0;
}

// ------------------------------------------------------------ loadgen

using Clock = std::chrono::steady_clock;

/// Serializes the streams' JSON lines into one file.
class RecordLog {
 public:
  explicit RecordLog(std::FILE* out) : out_(out) {}
  void Write(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::fputs(line.c_str(), out_);
  }

 private:
  std::mutex mu_;
  std::FILE* out_;
};

/// The mutation stream's progress, shared with the churn queries: a
/// churn query may read any epoch from the batches acknowledged when it
/// was sent to the batches sent when it returned.
struct Cursor {
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> acked{0};
};

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

/// One open-loop stream on its own connection: request k is due at
/// k / rate seconds. A request sent late (because the previous one had
/// not returned) keeps its due time, so a stall charges every request
/// queued behind it.
void RunStream(const std::string& stream, double rate, const Flags& flags,
               const std::vector<dyn::EdgeMutation>& ops, Cursor* cursor,
               Clock::time_point start, RecordLog* log) {
  const std::string socket = flags.Get("unix");
  const double seconds = flags.Num("seconds", 5);
  const size_t batch_size = flags.Uint("batch-size", 64);
  const uint64_t first_batch = flags.Uint("first-batch", 0);
  const bool mutate = stream == "mutate";
  const std::string graph = flags.Get(stream == "static" ? "static" : "churn");
  const auto ns_since_start = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - start)
            .count());
  };

  std::optional<serve::ServeClient> client;
  for (uint64_t k = 0;; ++k) {
    const double due_s = static_cast<double>(k) / rate;
    if (due_s >= seconds) break;
    const uint64_t batch = first_batch + k;
    if (mutate && (batch + 1) * batch_size > ops.size()) break;
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(due_s * 1e9));
    std::this_thread::sleep_until(due);
    const Clock::time_point send = Clock::now();
    char fields[512] = "";
    std::string error;
    if (!client.has_value()) {
      Result<serve::ServeClient> connected =
          serve::ServeClient::ConnectUnix(socket);
      if (connected.ok()) {
        client.emplace(std::move(connected).ValueOrDie());
      } else {
        error = connected.status().ToString();
      }
    }
    if (client.has_value() && mutate) {
      serve::MutateRequest request;
      request.graph = graph;
      request.ops.assign(
          ops.begin() + static_cast<ptrdiff_t>(batch * batch_size),
          ops.begin() + static_cast<ptrdiff_t>((batch + 1) * batch_size));
      cursor->sent.store(batch + 1);
      const Result<serve::MutateReply> reply = client->Mutate(request);
      if (reply.ok()) {
        cursor->acked.store(batch + 1);
        std::snprintf(fields, sizeof(fields),
                      ", \"batch\": %llu, \"triangles\": %llu, "
                      "\"server_s\": %.9g, \"compacted\": %d",
                      static_cast<unsigned long long>(batch + 1),
                      static_cast<unsigned long long>(reply->triangles),
                      reply->wall_s, static_cast<int>(reply->compacted));
      } else {
        error = reply.status().ToString();
      }
    } else if (client.has_value()) {
      serve::QueryRequest request;
      request.graph = graph;
      request.orient = kThetaD;
      request.methods = {Method::kE1};
      const uint64_t lo = cursor->acked.load();
      const Result<serve::QueryResponse> reply = client->Query(request);
      const uint64_t hi = cursor->sent.load();
      if (reply.ok() && reply->methods.size() == 1) {
        double exec_s = 0;
        double orient_s = 0;
        for (const serve::StageWall& stage : reply->stages) {
          exec_s += stage.wall_s;
          if (stage.name == "order" || stage.name == "orient") {
            orient_s += stage.wall_s;
          }
        }
        std::snprintf(
            fields, sizeof(fields),
            ", \"triangles\": %llu, \"ops\": %.17g, \"lo\": %llu, "
            "\"hi\": %llu, \"queue_s\": %.9g, \"exec_s\": %.9g, "
            "\"orient_s\": %.9g, \"cached\": %d",
            static_cast<unsigned long long>(reply->methods[0].triangles),
            reply->methods[0].paper_ops, static_cast<unsigned long long>(lo),
            static_cast<unsigned long long>(hi), reply->queue_wait_s, exec_s,
            orient_s, static_cast<int>(reply->orientation_cached));
      } else {
        error = reply.ok() ? "malformed reply" : reply.status().ToString();
      }
    }
    if (!error.empty() && client.has_value() &&
        !client->last_failure_was_reply()) {
      client.reset();  // transport failure: reconnect for the next request
    }
    const Clock::time_point done = Clock::now();
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"stream\": \"%s\", \"k\": %llu, \"due_ns\": %lld, "
                  "\"send_ns\": %lld, \"done_ns\": %lld, \"ok\": %d",
                  stream.c_str(), static_cast<unsigned long long>(k),
                  ns_since_start(due), ns_since_start(send),
                  ns_since_start(done), error.empty() ? 1 : 0);
    std::string line = head;
    line += fields;
    if (!error.empty()) line += ", \"error\": \"" + Escape(error) + "\"";
    line += "}\n";
    log->Write(line);
  }
}

int CmdLoadgen(const Flags& flags) {
  const Result<std::vector<dyn::EdgeMutation>> ops =
      dyn::ReadMutationLog(flags.Get("ops"));
  if (!ops.ok()) return Fail(ops.status().ToString());
  std::FILE* out = std::fopen(flags.Get("out").c_str(), "w");
  if (out == nullptr) return Fail("loadgen: cannot open --out");
  RecordLog log(out);
  Cursor cursor;
  cursor.sent = flags.Uint("first-batch", 0);
  cursor.acked = flags.Uint("first-batch", 0);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> streams;
  for (const char* stream : {"static", "churn", "mutate"}) {
    const double rate = flags.Num(std::string(stream) + "-rate", 1);
    streams.emplace_back(RunStream, std::string(stream), rate,
                         std::cref(flags), std::cref(*ops), &cursor, start,
                         &log);
  }
  for (std::thread& t : streams) t.join();
  return std::fclose(out) == 0 ? 0 : Fail("loadgen: short write");
}

// ------------------------------------------------------------- layers

/// Times one call inside a bench-owned span named after its layer.
template <typename Body>
double TimedSpan(const char* span_name, Body&& body) {
  obs::TraceSpan span(span_name);
  const Timer timer;
  body();
  return timer.ElapsedSeconds();
}

/// Method-keyed metric name, e.g. "algo.T1_s".
std::string MethodKey(const char* prefix, Method m, const char* suffix) {
  return std::string(prefix) + MethodName(m) + suffix;
}

int CmdLayers(const Flags& flags) {
  const int threads = static_cast<int>(flags.Uint("threads", 4));
  const uint64_t want_triangles = flags.Uint("triangles", 0);
  Metrics out;
  int attempted = 0;
  int failed = 0;
  const auto check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "probe: check failed: %s\n", what.c_str());
    }
  };

  const auto open_tlg = [&]() -> Result<TlgFile> {
    return TlgFile::Open(flags.Get("tlg"));
  };
  Result<TlgFile> tlg = open_tlg();
  if (!tlg.ok()) return Fail(tlg.status().ToString());
  const Graph graph = tlg->graph();  // a copy pins the first mapping
  OrientedGraph oriented = OrientStages(graph, kThetaD, 1, nullptr);
  std::optional<DirectedEdgeSet> arcs;
  arcs.emplace(oriented);

  // algo / parallel_engine, before the tracer is on and before any other
  // large allocation: every worker thread that records a span gets a
  // trace buffer that lives until the process exits, and the pool's
  // threads are new on every call, so tracing would inflate the peak-RSS
  // growth reported here.
  ExecPolicy parallel;
  parallel.threads = threads;
  const size_t rss_before = PeakRssBytes();
  const CpuGauge par_cpu;
  double par_total_s = 0;
  for (const Method m : FundamentalMethods()) {
    CountingSink sink;
    const Timer timer;
    RunMethodParallel(m, oriented, *arcs, &sink, parallel);
    const double wall = timer.ElapsedSeconds();
    check(sink.count() == want_triangles,
          MethodKey("parallel ", m, " triangles"));
    out.Set(MethodKey("algo.par_", m, "_s"), wall);
    par_total_s += wall;
  }
  out.Set("algo.par_cpu_ratio", par_cpu.CpuSecondsElapsed() / par_total_s);
  out.Set("algo.par_rss_delta_mb",
          static_cast<double>(PeakRssBytes() - rss_before) / (1 << 20));

  obs::Tracer::Clear();
  obs::Tracer::Enable();

  // graph: the container open behind every `.tlg` run.
  out.Set("graph.tlg_open_s",
          TimedSpan("bench.graph.tlg_open", [&] { tlg = open_tlg(); }));
  check(tlg.ok(), "container reopened");

  // order: theta_D labels, then relabel + orient, on one thread.
  StageClock stages;
  TimedSpan("bench.order.orient_stages", [&] {
    oriented = OrientStages(graph, kThetaD, 1, &stages);
  });
  out.Set("order.labels_s", stages.WallOf("order"));
  out.Set("order.orient_s", stages.WallOf("orient"));

  // algo: the arc set and the serial kernels.
  out.Set("algo.arcs_s",
          TimedSpan("bench.algo.arcs", [&] { arcs.emplace(oriented); }));
  double serial_total_s = 0;
  for (const Method m : FundamentalMethods()) {
    CountingSink sink;
    OpCounts ops;
    const double wall = TimedSpan("bench.algo.serial", [&] {
      ops = RunMethod(m, oriented, *arcs, &sink);
    });
    check(sink.count() == want_triangles,
          MethodKey("serial ", m, " triangles"));
    const auto paper_ops = static_cast<double>(ops.PaperCost());
    out.Set(MethodKey("algo.", m, "_s"), wall);
    out.Set(MethodKey("algo.", m, "_ops"), paper_ops);
    out.Set(MethodKey("algo.", m, "_ns_per_op"),
            wall * 1e9 / std::max(1.0, paper_ops));
    serial_total_s += wall;
  }
  out.Set("algo.triangles", static_cast<double>(want_triangles));
  out.Set("algo.par_speedup", serial_total_s / par_total_s);

  // run/cost: the planner as `--methods auto --order auto --intersect
  // auto` drives it, and one cold PredictedOps call.
  std::optional<cost::CostModel> model;
  const double model_s = TimedSpan("bench.run.plan_model", [&] {
    model.emplace(AscendingDegrees(graph));
  });
  PlannerRequest request;
  request.auto_method = true;
  request.auto_order = true;
  request.auto_intersect = true;
  PlanResult plan;
  const double resolve_s = TimedSpan("bench.run.plan_resolve", [&] {
    plan = ResolvePlan(*model, request);
  });
  out.Set("run.plan_model_s", model_s);
  out.Set("run.plan_resolve_s", resolve_s);
  out.Set("run.plan_candidates", static_cast<double>(plan.candidates.size()));
  {
    const cost::CostModel cold(AscendingDegrees(graph));
    out.Set("cost.predicted_ops_us",
            1e6 * TimedSpan("bench.cost.predicted_ops", [&] {
              cold.PredictedOps(kThetaD, Method::kE1);
            }));
  }
  // The share is taken of the planned methods' listing wall on their own
  // orientation: the work the plan stage runs ahead of.
  const bool planned_on_d = plan.chosen.orient.Key() == kThetaD.Key();
  const OrientedGraph planned_graph =
      planned_on_d ? oriented
                   : OrientStages(graph, plan.chosen.orient, 1, nullptr);
  std::optional<DirectedEdgeSet> planned_arcs;
  if (!planned_on_d) planned_arcs.emplace(planned_graph);
  ExecPolicy planned_exec;
  planned_exec.intersect = plan.chosen.intersect;
  const double planned_list_s = TimedSpan("bench.algo.planned_list", [&] {
    for (const Method m : plan.chosen.methods) {
      CountingSink sink;
      RunMethod(m, planned_graph, planned_on_d ? *arcs : *planned_arcs,
                &sink, planned_exec);
      check(sink.count() == want_triangles, "planned method triangles");
    }
  });
  out.Set("run.plan_share_of_list", (model_s + resolve_s) / planned_list_s);

  // graph: tolerant text ingest of the same graph.
  Result<IngestedGraph> ingested = Status::Internal("not run");
  const double ingest_s = TimedSpan("bench.graph.ingest", [&] {
    ingested = IngestEdgeListFile(flags.Get("text"));
  });
  check(ingested.ok() && ingested->graph.num_edges() == graph.num_edges(),
        "ingested edge count");
  out.Set("graph.ingest_s", ingest_s);
  out.Set("graph.ingest_edges_per_s",
          static_cast<double>(graph.num_edges()) / ingest_s);

  // dyn: replay the mutation batches on a bench-owned DynGraph, and
  // materialize a snapshot after the first few, as the daemon does after
  // every batch.
  const Result<std::vector<dyn::EdgeMutation>> ops =
      dyn::ReadMutationLog(flags.Get("ops"));
  if (!ops.ok()) return Fail(ops.status().ToString());
  const size_t batch_size = flags.Uint("batch-size", 64);
  dyn::DynGraph dyn_graph =
      dyn::DynGraph::FromBaseWithCount(graph, want_triangles);
  std::vector<double> apply_ms;
  std::vector<double> materialize_ms;
  int64_t comparisons = 0;
  double predicted = 0;
  uint64_t applied_edges = 0;
  Graph snapshot;
  for (size_t pos = 0; pos + batch_size <= ops->size(); pos += batch_size) {
    Result<dyn::ApplyResult> applied = Status::Internal("not run");
    apply_ms.push_back(1e3 * TimedSpan("bench.dyn.apply", [&] {
      applied = dyn_graph.Apply(std::span<const dyn::EdgeMutation>(
          ops->data() + pos, batch_size));
    }));
    check(applied.ok(), "dyn apply");
    if (!applied.ok()) break;
    comparisons += applied->comparisons;
    predicted += applied->predicted_ops;
    applied_edges += applied->applied_inserts + applied->applied_deletes;
    if (materialize_ms.size() < 8) {
      materialize_ms.push_back(1e3 * TimedSpan("bench.dyn.materialize", [&] {
        snapshot = dyn_graph.MaterializeGraph();
      }));
    }
  }
  check(dyn::CountTriangles(dyn_graph.MaterializeGraph()) ==
            dyn_graph.triangles(),
        "incremental count vs recount");
  const auto edges = static_cast<double>(std::max<uint64_t>(1, applied_edges));
  out.Set("dyn.apply_ms", Median(apply_ms));
  out.Set("dyn.materialize_ms", Median(materialize_ms));
  out.Set("dyn.comparisons_per_edge", static_cast<double>(comparisons) / edges);
  out.Set("dyn.predicted_ops_per_edge", predicted / edges);

  obs::Tracer::Disable();
  check(obs::Tracer::WriteChromeJson(flags.Get("trace-out")).ok(),
        "chrome trace written");
  out.Set("probe.attempted", attempted);
  out.Set("probe.failed", failed);
  out.Print();
  return 0;
}

int CmdVersion() {
  const BuildInfo& info = GetBuildInfo();
  std::printf(
      "{\"git_hash\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"simd_level\": \"%s\"}\n",
      info.git_hash, info.build_type, info.compiler,
      SimdLevelName(ActiveSimdLevel()));
  return 0;
}

int CmdCalib() {
  // Fixed work that calls no library code, so no change to the program
  // can move it: a sort of 2^20 keys and 2^19 dependent reads over a
  // 32 MB table, the same mix of compute, streaming and cache misses the
  // listing pipeline has.
  std::vector<uint64_t> keys(uint64_t{1} << 20);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::vector<uint32_t> next(uint64_t{1} << 23);
  for (size_t i = 0; i < next.size(); ++i) {
    next[i] = static_cast<uint32_t>(keys[i % keys.size()] >> 41);
  }
  const Timer timer;
  std::sort(keys.begin(), keys.end());
  uint32_t at = 0;
  for (int step = 0; step < (1 << 19); ++step) at = next[at] ^ step;
  const double seconds = timer.ElapsedSeconds();
  std::printf("{\"calib_s\": %.9f, \"check\": %u}\n", seconds,
              at ^ static_cast<uint32_t>(keys[keys.size() / 2]));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: probe gen|ref|churn|loadgen|layers|calib|version ... "
               "(see probe.cpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "gen" && argc >= 3) return CmdGen(argv[2], Flags(argc, argv, 3));
  const Flags flags(argc, argv, 2);
  if (cmd == "ref") return CmdRef(flags);
  if (cmd == "churn") return CmdChurn(flags);
  if (cmd == "loadgen") return CmdLoadgen(flags);
  if (cmd == "layers") return CmdLayers(flags);
  if (cmd == "calib") return CmdCalib();
  if (cmd == "version") return CmdVersion();
  return Usage();
}
