/// \file bench_dynamic_mix.cpp
/// Mixed dynamic-graph workload against an in-process trilistd: N
/// closed-loop client threads, each drawing ops from a weighted mix
/// (edge-insert batch / edge-delete batch / triangle query) against one
/// served graph, in the style of per-thread weighted op-mix graph
/// benchmarks. Reports mutation throughput (edges/s) and query latency
/// percentiles under churn per mix point — every query pays the epoch
/// invalidation its concurrent writers cause, which is the cost this
/// bench isolates.
///
/// A second section measures the incremental-maintenance win directly on
/// DynGraph (no sockets): the wall time of maintaining the exact count
/// through Apply versus recounting the graph from scratch after every
/// batch — the paper-costed full pass the overlay replaces.
///
/// Writes BENCH_dynamic_mix.json (TRILIST_BENCH_JSON overrides). Scale
/// knobs: TRILIST_PAPER_SCALE=1 grows the graph and window;
/// TRILIST_DYN_BENCH_SECONDS overrides the per-point window.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/dyn/dyn_graph.h"
#include "src/dyn/mutation_log.h"
#include "src/graph/binfmt.h"
#include "src/run/runner.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {

using namespace trilist;
using namespace trilist::serve;

/// One weighted op mix, percentages summing to 100.
struct Mix {
  const char* name;
  int insert_pct;
  int delete_pct;
  int query_pct;
};

struct MixPoint {
  Mix mix{};
  int threads = 0;
  double seconds = 0;
  uint64_t mutation_batches = 0;
  uint64_t mutations_sent = 0;     ///< edges offered (batch size x batches)
  uint64_t mutations_applied = 0;  ///< non-noop inserts + deletes
  uint64_t queries = 0;
  uint64_t rejected = 0;
  uint64_t final_triangles = 0;
  double mutation_edges_per_s = 0;
  double mutate_p50_ms = 0, mutate_p99_ms = 0;
  double query_p50_ms = 0, query_p99_ms = 0;
};

double PercentileMs(std::vector<double>* latencies, double q) {
  if (latencies->empty()) return 0;
  std::sort(latencies->begin(), latencies->end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(latencies->size() - 1) + 0.5);
  return (*latencies)[std::min(index, latencies->size() - 1)] * 1e3;
}

/// Runs one mix point: `threads` closed-loop clients for `seconds`.
/// Each thread owns a connection and a deterministic RNG stream; every
/// mutation is a batch of `batch` random edges inside [0, id_range).
MixPoint RunMix(const TriangleServer& server, const std::string& graph,
                const Mix& mix, int threads, double seconds, size_t batch,
                uint32_t id_range) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0}, applied{0}, rejected{0};
  std::vector<std::vector<double>> mutate_lat(threads), query_lat(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);

  QueryRequest query;
  query.graph = graph;
  query.orient = OrientSpec{PermutationKind::kDescending, 0};
  query.methods = {Method::kT1};

  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto client = ServeClient::ConnectUnix(server.unix_path());
      if (!client.ok()) return;
      Rng rng(trilist_bench::Seed() + 977 * static_cast<uint64_t>(t + 1));
      while (!stop.load(std::memory_order_relaxed)) {
        const int roll = static_cast<int>(rng.NextBounded(100));
        if (roll < mix.query_pct) {
          Timer timer;
          auto response = client.ValueOrDie().Query(query);
          if (response.ok()) {
            query_lat[t].push_back(timer.ElapsedSeconds());
          } else if (client.ValueOrDie().last_failure_was_reply()) {
            ++rejected;
          } else {
            return;
          }
          continue;
        }
        MutateRequest request;
        request.graph = graph;
        request.ops.reserve(batch);
        const bool insert =
            roll < mix.query_pct + mix.insert_pct || mix.delete_pct == 0;
        for (size_t i = 0; i < batch; ++i) {
          dyn::EdgeMutation m;
          m.u = static_cast<NodeId>(rng.NextBounded(id_range));
          do {
            m.v = static_cast<NodeId>(rng.NextBounded(id_range));
          } while (m.v == m.u);
          m.insert = insert;
          request.ops.push_back(m);
        }
        Timer timer;
        auto reply = client.ValueOrDie().Mutate(request);
        if (reply.ok()) {
          mutate_lat[t].push_back(timer.ElapsedSeconds());
          ++batches;
          applied += reply->applied_inserts + reply->applied_deletes;
        } else if (client.ValueOrDie().last_failure_was_reply()) {
          ++rejected;
        } else {
          return;
        }
      }
    });
  }
  Timer window;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : pool) t.join();
  const double elapsed = window.ElapsedSeconds();

  MixPoint point;
  point.mix = mix;
  point.threads = threads;
  point.seconds = elapsed;
  point.mutation_batches = batches.load();
  point.mutations_sent = batches.load() * batch;
  point.mutations_applied = applied.load();
  point.rejected = rejected.load();
  point.mutation_edges_per_s =
      elapsed > 0 ? static_cast<double>(point.mutations_sent) / elapsed : 0;
  std::vector<double> mutates, queries;
  for (int t = 0; t < threads; ++t) {
    mutates.insert(mutates.end(), mutate_lat[t].begin(), mutate_lat[t].end());
    queries.insert(queries.end(), query_lat[t].begin(), query_lat[t].end());
  }
  point.queries = queries.size();
  point.mutate_p50_ms = PercentileMs(&mutates, 0.50);
  point.mutate_p99_ms = PercentileMs(&mutates, 0.99);
  point.query_p50_ms = PercentileMs(&queries, 0.50);
  point.query_p99_ms = PercentileMs(&queries, 0.99);
  return point;
}

}  // namespace

int main() {
  const size_t n = trilist_bench::ScaledN(100000, 10000);
  const double window_s = [] {
    if (const char* v = std::getenv("TRILIST_DYN_BENCH_SECONDS")) {
      return std::strtod(v, nullptr);
    }
    return trilist_bench::PaperScale() ? 5.0 : 1.0;
  }();
  const size_t batch = 64;

  Rng rng(trilist_bench::Seed());
  const Graph graph = trilist_bench::MakeBenchGraph(
      trilist_bench::ParetoSpec(n, 1.7, TruncationKind::kRoot), &rng);
  const std::string tlg_path = "dynamic_mix_graph.tlg";
  TlgWriteOptions write_options;
  write_options.orientations = {OrientSpec{PermutationKind::kDescending, 0}};
  const Status wrote = WriteTlgFile(graph, tlg_path, write_options);
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }

  ServerOptions options;
  options.unix_path = "dynamic_mix.sock";
  ::remove(options.unix_path.c_str());
  options.catalog.named = {{"bench", tlg_path}};
  options.workers = 0;  // all hardware threads
  options.max_queue = 256;
  auto server = TriangleServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  std::printf("# dynamic mix: n=%zu m=%zu, window %.1fs, batch %zu\n",
              graph.num_nodes(), graph.num_edges(), window_s, batch);
  std::printf("%12s %8s %10s %12s %10s %10s %10s %10s %10s\n", "mix",
              "threads", "batches", "edges/s", "mut_p50", "mut_p99",
              "qry_p50", "qry_p99", "rejected");

  // Mix points in the GraphTest style: mutation-heavy, balanced, and
  // read-heavy, all with the same per-thread weighted draw.
  const std::vector<Mix> mixes = {
      {"90i/9d/1q", 90, 9, 1},
      {"45i/45d/10q", 45, 45, 10},
      {"20i/20d/60q", 20, 20, 60},
  };
  const int threads = trilist_bench::PaperScale() ? 8 : 4;
  const uint32_t id_range = static_cast<uint32_t>(graph.num_nodes());

  std::vector<MixPoint> points;
  for (const Mix& mix : mixes) {
    MixPoint point =
        RunMix(**server, "bench", mix, threads, window_s, batch, id_range);
    // Cross-check the maintained count against a served recount: T1 and
    // T2 must agree with each other on the final epoch.
    QueryRequest check;
    check.graph = "bench";
    check.methods = {Method::kT1, Method::kT2};
    auto verify = ServeClient::ConnectUnix((*server)->unix_path());
    if (verify.ok()) {
      auto response = verify.ValueOrDie().Query(check);
      if (response.ok() && response->methods.size() == 2 &&
          response->methods[0].triangles == response->methods[1].triangles) {
        point.final_triangles = response->methods[0].triangles;
      } else {
        std::fprintf(stderr, "final recount mismatch on mix %s\n", mix.name);
        return 1;
      }
    }
    points.push_back(point);
    std::printf("%12s %8d %10llu %12.0f %10.3f %10.3f %10.3f %10.3f %10llu\n",
                mix.name, point.threads,
                static_cast<unsigned long long>(point.mutation_batches),
                point.mutation_edges_per_s, point.mutate_p50_ms,
                point.mutate_p99_ms, point.query_p50_ms, point.query_p99_ms,
                static_cast<unsigned long long>(point.rejected));
  }
  (*server)->BeginDrain();
  (*server)->Wait();

  // Incremental maintenance vs full recount, measured on DynGraph
  // directly: maintaining the count through K batches of Apply versus
  // recounting from scratch after every batch (the cost the overlay
  // replaces). The acceptance bar is a >= 10x win.
  const int recount_batches = trilist_bench::PaperScale() ? 32 : 16;
  dyn::DynGraph dyn_graph = dyn::DynGraph::FromBase(graph);
  Rng mut_rng(trilist_bench::Seed() + 1);
  double apply_wall = 0;
  uint64_t incremental_mutations = 0;
  for (int b = 0; b < recount_batches; ++b) {
    std::vector<dyn::EdgeMutation> ops;
    ops.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      dyn::EdgeMutation m;
      m.u = static_cast<NodeId>(mut_rng.NextBounded(id_range));
      do {
        m.v = static_cast<NodeId>(mut_rng.NextBounded(id_range));
      } while (m.v == m.u);
      m.insert = mut_rng.NextDouble() < 0.7;
      ops.push_back(m);
    }
    Timer timer;
    auto applied_batch = dyn_graph.Apply(ops);
    apply_wall += timer.ElapsedSeconds();
    if (!applied_batch.ok()) {
      std::fprintf(stderr, "%s\n", applied_batch.status().ToString().c_str());
      return 1;
    }
    incremental_mutations += batch;
  }
  const Graph final_graph = dyn_graph.MaterializeGraph();
  Timer recount_timer;
  const uint64_t recounted = dyn::CountTriangles(final_graph);
  const double recount_wall = recount_timer.ElapsedSeconds();
  if (recounted != dyn_graph.triangles()) {
    std::fprintf(stderr, "incremental count diverged: %llu vs %llu\n",
                 static_cast<unsigned long long>(dyn_graph.triangles()),
                 static_cast<unsigned long long>(recounted));
    return 1;
  }
  const double full_equiv = recount_wall * recount_batches;
  const double speedup = apply_wall > 0 ? full_equiv / apply_wall : 0;
  std::printf("# incremental vs recount-per-batch: %d batches x %zu edges, "
              "apply %.4fs vs %.4fs equivalent -> %.1fx\n",
              recount_batches, batch, apply_wall, full_equiv, speedup);

  JsonWriter w;
  w.BeginObject();
  w.Field("bench", "dynamic_mix");
  w.Field("n", static_cast<uint64_t>(graph.num_nodes()));
  w.Field("m", static_cast<uint64_t>(graph.num_edges()));
  w.Field("batch_edges", static_cast<uint64_t>(batch));
  w.FieldDouble("window_s", window_s, 3);
  w.Key("points");
  w.BeginArray();
  for (const MixPoint& point : points) {
    w.BeginObject();
    w.Field("mix", point.mix.name);
    w.Field("threads", point.threads);
    w.Field("mutation_batches", point.mutation_batches);
    w.Field("mutations_sent", point.mutations_sent);
    w.Field("mutations_applied", point.mutations_applied);
    w.Field("queries", point.queries);
    w.Field("rejected", point.rejected);
    w.Field("final_triangles", point.final_triangles);
    w.FieldDouble("mutation_edges_per_s", point.mutation_edges_per_s, 1);
    w.FieldDouble("mutate_p50_ms", point.mutate_p50_ms, 4);
    w.FieldDouble("mutate_p99_ms", point.mutate_p99_ms, 4);
    w.FieldDouble("query_p50_ms", point.query_p50_ms, 4);
    w.FieldDouble("query_p99_ms", point.query_p99_ms, 4);
    w.EndObject();
  }
  w.EndArray();
  w.Key("incremental_vs_recount");
  w.BeginObject();
  w.Field("batches", static_cast<uint64_t>(recount_batches));
  w.Field("mutations", incremental_mutations);
  w.Field("triangles", dyn_graph.triangles());
  w.FieldDouble("apply_wall_s", apply_wall, 6);
  w.FieldDouble("one_recount_wall_s", recount_wall, 6);
  w.FieldDouble("recount_per_batch_equiv_wall_s", full_equiv, 6);
  w.FieldDouble("speedup", speedup, 2);
  w.EndObject();
  w.EndObject();

  const std::string json_path =
      trilist_bench::JsonPath("BENCH_dynamic_mix.json");
  std::FILE* f = std::fopen(json_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  const std::string json = std::move(w).Finish();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("# wrote %s\n", json_path.c_str());

  ::remove(tlg_path.c_str());
  return 0;
}
