#include "src/algo/parallel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/algo/registry.h"
#include "src/degree/graphicality.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/gen/configuration_model.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/preferential_attachment.h"
#include "src/graph/builder.h"
#include "src/order/pipeline.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"
#include "tests/expect_same_ops.h"

namespace trilist {
namespace {

// ---------------------------------------------------------------------------
// Thread-pool primitive.

TEST(ParallelForTest, EveryChunkRunsExactlyOnce) {
  constexpr size_t kChunks = 1000;
  std::vector<std::atomic<int>> hits(kChunks);
  for (auto& h : hits) h.store(0);
  ThreadPool pool(8);
  pool.ParallelFor(kChunks, [&](size_t c) { hits[c].fetch_add(1); });
  for (size_t c = 0; c < kChunks; ++c) {
    ASSERT_EQ(hits[c].load(), 1) << "chunk " << c;
  }
}

TEST(ParallelForTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(round + 1, [&](size_t c) {
      sum.fetch_add(static_cast<int64_t>(c));
    });
    EXPECT_EQ(sum.load(), static_cast<int64_t>(round) * (round + 1) / 2);
  }
}

TEST(ParallelForTest, DegenerateShapesRunInline) {
  int calls = 0;
  ParallelFor(1, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
  ParallelFor(8, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
  ParallelFor(8, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 6);
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t c) {
                         if (c == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> ok{0};
  pool.ParallelFor(8, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ParallelForTest, PrefixSumMatchesSerialScan) {
  Rng rng(7);
  std::vector<size_t> values(1237);
  for (auto& v : values) v = rng.NextBounded(100);
  std::vector<size_t> expected = values;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<size_t> actual = values;
    ParallelInclusivePrefixSum(&pool, &actual);
    EXPECT_EQ(actual, expected) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Parallel/serial equivalence of the listing engine.

/// The three random families of the equivalence matrix: ER, Pareto
/// configuration model, preferential attachment; plus a clique, whose
/// orientation concentrates all work on hub rows and so exercises the
/// mid-vertex chunk cuts, and a hub joined to every node of a sparse ER
/// graph: every triangle meets the hub, so the hub's row carries most of
/// every method's weight and the chunk cuts land inside it.
Graph MakeEquivalenceGraph(const std::string& kind) {
  Rng rng(20170514);
  if (kind == "er") return GenerateGnp(400, 0.025, &rng);
  if (kind == "hub") {
    const Graph base = GenerateGnp(300, 0.03, &rng);
    std::vector<Edge> edges;
    for (size_t u = 0; u < base.num_nodes(); ++u) {
      const auto node = static_cast<NodeId>(u);
      edges.push_back({node, 300});
      for (const NodeId v : base.Neighbors(node)) {
        if (node < v) edges.push_back({node, v});
      }
    }
    return Graph::FromEdges(301, edges).ValueOrDie();
  }
  if (kind == "config_pareto") {
    const DiscretePareto base = DiscretePareto::PaperParameterization(1.5);
    const TruncatedDistribution fn(base, 60);
    std::vector<int64_t> degrees(600);
    for (auto& d : degrees) d = fn.Sample(&rng);
    MakeGraphic(&degrees);
    return ConfigurationModel(degrees, &rng).ValueOrDie();
  }
  if (kind == "pa") {
    return GeneratePreferentialAttachment(400, 4, &rng).ValueOrDie();
  }
  if (kind == "clique") return MakeComplete(40);
  if (kind == "empty") return MakeEmpty(0);
  if (kind == "isolated") return MakeEmpty(50);
  if (kind == "star") return MakeStar(1601);
  ADD_FAILURE() << "unknown graph kind " << kind;
  return Graph();
}

TEST(ParallelEngineTest, MatchesSerialOnAllFamiliesMethodsAndWidths) {
  for (const std::string kind :
       {"er", "config_pareto", "pa", "clique", "star", "hub"}) {
    const Graph g = MakeEquivalenceGraph(kind);
    // The hub takes the first label under one order and the last under
    // the other, so both its out-row and its in-row get cut.
    for (PermutationKind order :
         {PermutationKind::kDescending, PermutationKind::kAscending,
          PermutationKind::kRoundRobin}) {
      Rng rng(3);
      const OrientedGraph og = OrientNamed(g, order, &rng);
      const DirectedEdgeSet arcs(og);
      for (Method m : AllMethods()) {
        CollectingSink serial_sink;
        const OpCounts serial = RunMethod(m, og, arcs, &serial_sink);
        for (int threads : {1, 2, 8}) {
          const std::string label =
              kind + "/" + PermutationKindName(order) + "/" +
              MethodName(m) + "/threads=" + std::to_string(threads);
          ExecPolicy exec;
          exec.threads = threads;
          CollectingSink parallel_sink;
          const OpCounts parallel =
              RunMethodParallel(m, og, arcs, &parallel_sink, exec);
          // Every field, hash_inserts included: a lookup row split across
          // chunks is charged its build once.
          ExpectSameOps(serial, parallel, label);
          // Not just the same multiset: the deterministic merge replays
          // chunks in serial order, so the emission sequence is identical.
          EXPECT_EQ(serial_sink.triangles(), parallel_sink.triangles())
              << label;
          // The count-only path reduces per chunk and lists nothing; its
          // counters and the credited total are the same.
          CountingSink counting_sink;
          const OpCounts counted =
              RunMethodParallel(m, og, arcs, &counting_sink, exec);
          ExpectSameOps(serial, counted, label + "/counting");
          EXPECT_EQ(counting_sink.count(),
                    static_cast<uint64_t>(serial.triangles))
              << label;
        }
      }
    }
  }
}

TEST(ParallelEngineTest, FineChunkingStaysExact) {
  // Far more chunks than work: boundary handling must not drop or
  // duplicate positions even when most chunks are empty.
  const Graph g = MakeComplete(5);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  const DirectedEdgeSet arcs(og);
  for (Method m : AllMethods()) {
    CollectingSink serial_sink;
    const OpCounts serial = RunMethod(m, og, arcs, &serial_sink);
    ExecPolicy exec;
    exec.threads = 8;  // 64 chunks over 10 arcs
    CollectingSink parallel_sink;
    const OpCounts parallel =
        RunMethodParallel(m, og, arcs, &parallel_sink, exec);
    ExpectSameOps(serial, parallel, MethodName(m));
    EXPECT_EQ(serial_sink.triangles(), parallel_sink.triangles());
  }
}

TEST(ParallelEngineTest, RegistryPolicyOverloadBuildsArcsItself) {
  const Graph g = MakeEquivalenceGraph("config_pareto");
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  for (Method m : {Method::kT1, Method::kE4}) {
    CollectingSink serial_sink;
    const OpCounts serial = RunMethod(m, og, &serial_sink);
    ExecPolicy exec;
    exec.threads = 4;
    CollectingSink parallel_sink;
    const OpCounts parallel = RunMethod(m, og, &parallel_sink, exec);
    ExpectSameOps(serial, parallel, MethodName(m));
    EXPECT_EQ(serial_sink.triangles(), parallel_sink.triangles());
  }
}

TEST(ParallelEngineTest, EmptyAndTriangleFreeGraphs) {
  for (const Graph& g : {MakeEmpty(30), MakeStar(30), MakePath(30)}) {
    const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);
    for (Method m : AllMethods()) {
      ExecPolicy exec;
      exec.threads = 8;
      CountingSink sink;
      const OpCounts ops = RunMethod(m, og, &sink, exec);
      EXPECT_EQ(sink.count(), 0u);
      EXPECT_EQ(ops.triangles, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel orientation.

/// True when `row` is strictly ascending: sorted, no label twice.
bool StrictlyAscending(std::span<const NodeId> row) {
  return std::adjacent_find(row.begin(), row.end(),
                            [](NodeId a, NodeId b) { return a >= b; }) ==
         row.end();
}

TEST(ParallelOrientTest, FromLabelsMatchesSerialForAnyThreadCount) {
  // n = 0, isolated-only and a 1,600-leaf star (one row holds every arc
  // under a hub-first or hub-last order) besides the random families.
  for (const std::string kind : {"er", "config_pareto", "pa", "clique",
                                 "empty", "isolated", "star"}) {
    const Graph g = MakeEquivalenceGraph(kind);
    for (PermutationKind order :
         {PermutationKind::kDescending, PermutationKind::kRoundRobin,
          PermutationKind::kDegenerate}) {
      Rng rng_serial(5);
      const OrientedGraph serial = OrientNamed(g, order, &rng_serial);
      for (int threads : {2, 8}) {
        Rng rng_parallel(5);
        const OrientedGraph parallel =
            OrientNamed(g, order, &rng_parallel, threads);
        const std::string label = kind + "/threads=" +
                                  std::to_string(threads);
        ASSERT_EQ(serial.num_nodes(), parallel.num_nodes()) << label;
        ASSERT_EQ(serial.num_arcs(), parallel.num_arcs()) << label;
        EXPECT_TRUE(std::equal(serial.original_of().begin(),
                               serial.original_of().end(),
                               parallel.original_of().begin(),
                               parallel.original_of().end()))
            << label;
        for (size_t i = 0; i < serial.num_nodes(); ++i) {
          const auto node = static_cast<NodeId>(i);
          const auto so = serial.OutNeighbors(node);
          const auto po = parallel.OutNeighbors(node);
          ASSERT_TRUE(StrictlyAscending(so)) << label << " out row " << i;
          ASSERT_TRUE(std::equal(so.begin(), so.end(), po.begin(),
                                 po.end()))
              << label << " out row " << i;
          const auto si = serial.InNeighbors(node);
          const auto pi = parallel.InNeighbors(node);
          ASSERT_TRUE(StrictlyAscending(si)) << label << " in row " << i;
          ASSERT_TRUE(std::equal(si.begin(), si.end(), pi.begin(),
                                 pi.end()))
              << label << " in row " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace trilist
