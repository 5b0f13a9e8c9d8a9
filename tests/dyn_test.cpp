#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/dyn/dyn_graph.h"
#include "src/dyn/mutation_log.h"
#include "src/dyn/overlay.h"
#include "src/dyn/replay.h"
#include "src/graph/binfmt.h"
#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace trilist::dyn {
namespace {

using Edge = std::pair<NodeId, NodeId>;

Edge Canon(NodeId u, NodeId v) { return u < v ? Edge{u, v} : Edge{v, u}; }

/// A reference dynamic graph: a plain edge set mutated alongside the
/// DynGraph under test, rebuilt into a Graph on demand.
struct EdgeSetModel {
  std::set<Edge> edges;
  size_t num_nodes = 0;

  void Apply(const EdgeMutation& m) {
    num_nodes = std::max({num_nodes, size_t{m.u} + 1, size_t{m.v} + 1});
    if (m.insert) {
      edges.insert(Canon(m.u, m.v));
    } else {
      edges.erase(Canon(m.u, m.v));
    }
  }

  Graph Build() const {
    std::vector<Edge> list(edges.begin(), edges.end());
    auto g = Graph::FromEdges(num_nodes, list);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return g.ValueOrDie();
  }
};

/// Brute-force triangle count over an edge set (reference for the
/// incremental invariant; O(m * n), fine at test sizes).
uint64_t BruteTriangles(const Graph& g) {
  uint64_t count = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) {
      if (v <= u) continue;
      for (NodeId w : g.Neighbors(v)) {
        if (w <= v) continue;
        if (g.HasEdge(u, w)) ++count;
      }
    }
  }
  return count;
}

Graph K4PlusPath() {
  // K4 on {0..3} (4 triangles) plus the pendant path 3-4-5.
  auto g = Graph::FromEdges(
      6, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
  EXPECT_TRUE(g.ok());
  return g.ValueOrDie();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "trilist_dyn_" + std::to_string(::getpid()) +
         "_" + name;
}

// ---------------------------------------------------------------------------
// Mutation log format

TEST(MutationLogTest, RoundTripsAndSkipsComments) {
  const std::string path = TempPath("log_roundtrip.txt");
  const std::vector<EdgeMutation> log = {
      {0, 1, true}, {2, 7, true}, {0, 1, false}, {5, 3, true}};
  ASSERT_TRUE(WriteMutationLog(log, path).ok());

  auto read = ReadMutationLog(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, log);

  // Comments and blank lines are skipped wherever they appear.
  {
    std::ofstream out(path, std::ios::app);
    out << "\n# trailing comment\n+ 8 9\n";
  }
  read = ReadMutationLog(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), log.size() + 1);
  EXPECT_EQ(read->back(), (EdgeMutation{8, 9, true}));
  ::unlink(path.c_str());
}

TEST(MutationLogTest, RejectsMalformedLinesNamingTheLine) {
  const std::string path = TempPath("log_malformed.txt");
  const auto expect_rejects = [&](const std::string& text,
                                  const std::string& line_tag) {
    std::ofstream(path) << text;
    auto read = ReadMutationLog(path);
    ASSERT_FALSE(read.ok()) << "accepted: " << text;
    EXPECT_NE(read.status().ToString().find(line_tag), std::string::npos)
        << read.status().ToString();
  };
  expect_rejects("+ 0 1\n* 2 3\n", "line 2");     // unknown op
  expect_rejects("+ 0\n", "line 1");              // missing endpoint
  expect_rejects("+ 4 4\n", "line 1");            // self-loop
  expect_rejects("+ 0 1\n\n- x 2\n", "line 3");   // non-digit endpoint
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Overlay merge

TEST(OverlayTest, UntouchedRowIsZeroCopy)
{
  DeltaOverlay overlay;
  const std::vector<NodeId> base = {2, 5, 9};
  std::vector<NodeId> scratch;
  const auto row = overlay.MergedRow(base, 0, &scratch);
  // Same storage, not a copy: the common case under sparse churn.
  EXPECT_EQ(row.data(), base.data());
  EXPECT_TRUE(overlay.empty());
}

TEST(OverlayTest, MergesInsertsAndTombstonesSorted) {
  DeltaOverlay overlay;
  const std::vector<NodeId> base = {2, 5, 9};
  overlay.AddArc(0, 7);   // new arc interleaves between base entries
  overlay.AddArc(0, 1);   // new arc below every base entry
  overlay.RemoveArc(0, 5);  // tombstone a base arc

  std::vector<NodeId> scratch;
  const auto row = overlay.MergedRow(base, 0, &scratch);
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{1, 2, 7, 9}));
  EXPECT_EQ(overlay.DegreeDelta(0), 1);  // +2 inserted, -1 tombstoned
  EXPECT_EQ(overlay.delta_arcs(), 3u);

  // Re-adding the tombstoned base arc clears the tombstone instead of
  // duplicating it in the inserted list.
  overlay.AddArc(0, 5);
  EXPECT_FALSE(overlay.HasDeleted(0, 5));
  EXPECT_FALSE(overlay.HasInserted(0, 5));
  const auto restored = overlay.MergedRow(base, 0, &scratch);
  EXPECT_EQ(std::vector<NodeId>(restored.begin(), restored.end()),
            (std::vector<NodeId>{1, 2, 5, 7, 9}));
}

TEST(OverlayTest, PrunesNodeOnceDeltasCancel) {
  DeltaOverlay overlay;
  overlay.AddArc(3, 8);
  EXPECT_NE(overlay.Find(3), nullptr);
  overlay.RemoveArc(3, 8);  // removes from inserted, not a tombstone
  EXPECT_EQ(overlay.Find(3), nullptr) << "cancelled row must be pruned";
  EXPECT_TRUE(overlay.empty());
}

// ---------------------------------------------------------------------------
// DynGraph incremental maintenance

TEST(DynGraphTest, MaintainsExactCountThroughInsertsAndDeletes) {
  DynGraph dyn = DynGraph::FromBase(K4PlusPath());
  EXPECT_EQ(dyn.triangles(), 4u);
  EXPECT_EQ(dyn.num_edges(), 8u);

  // Closing the wedge 3-4-5 adds exactly one triangle.
  auto r = dyn.Apply(std::vector<EdgeMutation>{{3, 5, true}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().applied_inserts, 1u);
  EXPECT_EQ(dyn.triangles(), 5u);

  // Deleting a K4 edge removes the two triangles it supported.
  r = dyn.Apply(std::vector<EdgeMutation>{{0, 1, false}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().applied_deletes, 1u);
  EXPECT_EQ(dyn.triangles(), 3u);
  EXPECT_EQ(dyn.num_edges(), 8u);

  // The maintained count always equals a from-scratch count.
  EXPECT_EQ(dyn.triangles(), CountTriangles(dyn.MaterializeGraph()));
}

TEST(DynGraphTest, NoopsLeaveStateUntouched) {
  DynGraph dyn = DynGraph::FromBase(K4PlusPath());
  const uint64_t t = dyn.triangles();
  const uint64_t m = dyn.num_edges();

  auto r = dyn.Apply(std::vector<EdgeMutation>{
      {0, 1, true},    // already present
      {2, 5, false},   // already absent
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().noops, 2u);
  EXPECT_EQ(r.ValueOrDie().applied_inserts, 0u);
  EXPECT_EQ(dyn.triangles(), t);
  EXPECT_EQ(dyn.num_edges(), m);
  EXPECT_EQ(dyn.overlay_arcs(), 0u);
}

TEST(DynGraphTest, SelfLoopFailsTheWholeBatchAtomically) {
  DynGraph dyn = DynGraph::FromBase(K4PlusPath());
  const uint64_t t = dyn.triangles();
  const uint64_t m = dyn.num_edges();
  const uint64_t seq = dyn.seq();

  auto r = dyn.Apply(std::vector<EdgeMutation>{{3, 5, true}, {4, 4, true}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Nothing from the batch landed — not even the valid prefix.
  EXPECT_EQ(dyn.triangles(), t);
  EXPECT_EQ(dyn.num_edges(), m);
  EXPECT_EQ(dyn.seq(), seq);
  EXPECT_EQ(dyn.overlay_arcs(), 0u);
}

TEST(DynGraphTest, InsertBeyondBaseGrowsTheNodeSet) {
  DynGraph dyn = DynGraph::FromBase(K4PlusPath());
  ASSERT_EQ(dyn.num_nodes(), 6u);

  auto r = dyn.Apply(std::vector<EdgeMutation>{{5, 9, true}, {9, 0, true}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(dyn.num_nodes(), 10u);
  EXPECT_EQ(dyn.Degree(9), 2);
  EXPECT_TRUE(dyn.HasEdge(9, 5));
  EXPECT_TRUE(dyn.HasEdge(0, 9));

  const Graph g = dyn.MaterializeGraph();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(dyn.triangles(), CountTriangles(g));
}

TEST(DynGraphTest, PropertyRandomChurnMatchesRebuiltGraph) {
  // Random mutation stream over a small ID range (lots of collisions,
  // noops, deletes of inserted-then-removed edges) — after every batch
  // the dynamic view must be indistinguishable from a graph rebuilt
  // from the surviving edge set.
  Rng rng(20170514);
  const int kNodes = 24;

  Graph base = [&] {
    std::vector<Edge> edges;
    for (NodeId u = 0; u < kNodes; ++u) {
      for (NodeId v = u + 1; v < kNodes; ++v) {
        if (rng.NextDouble() < 0.15) edges.emplace_back(u, v);
      }
    }
    auto g = Graph::FromEdges(kNodes, edges);
    EXPECT_TRUE(g.ok());
    return g.ValueOrDie();
  }();

  EdgeSetModel model;
  model.num_nodes = kNodes;
  for (const auto& [u, v] : base.EdgeList()) model.edges.insert(Canon(u, v));

  DynGraph dyn = DynGraph::FromBase(base);
  ASSERT_EQ(dyn.triangles(), BruteTriangles(base));

  std::vector<NodeId> scratch;
  for (int batch = 0; batch < 12; ++batch) {
    std::vector<EdgeMutation> ops;
    for (int i = 0; i < 40; ++i) {
      EdgeMutation m;
      m.u = static_cast<NodeId>(rng.NextBounded(kNodes));
      do {
        m.v = static_cast<NodeId>(rng.NextBounded(kNodes));
      } while (m.v == m.u);
      m.insert = rng.NextDouble() < 0.6;
      ops.push_back(m);
      model.Apply(m);
    }
    ASSERT_TRUE(dyn.Apply(ops).ok());

    const Graph want = model.Build();
    ASSERT_EQ(dyn.num_edges(), want.num_edges());
    ASSERT_EQ(dyn.triangles(), BruteTriangles(want)) << "batch " << batch;

    // Merged neighbor iteration equals the rebuilt graph's rows.
    for (NodeId v = 0; v < kNodes; ++v) {
      const auto got = dyn.Neighbors(v, &scratch);
      const auto ref = want.Neighbors(v);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()))
          << "row " << v << " diverged in batch " << batch;
    }

    // Materialization is the same graph, arc for arc.
    const Graph mat = dyn.MaterializeGraph();
    ASSERT_EQ(mat.EdgeList(), want.EdgeList()) << "batch " << batch;
  }
}

TEST(DynGraphTest, CompactionPreservesCountsAndClearsOverlay) {
  DynGraph dyn = DynGraph::FromBase(K4PlusPath());
  ASSERT_TRUE(
      dyn.Apply(std::vector<EdgeMutation>{{3, 5, true}, {0, 1, false}}).ok());
  const uint64_t t = dyn.triangles();
  const uint64_t m = dyn.num_edges();
  const uint64_t seq = dyn.seq();
  ASSERT_GT(dyn.overlay_arcs(), 0u);

  EXPECT_FALSE(dyn.ShouldCompact(0.25, 1u << 20));  // min_arcs not reached
  EXPECT_TRUE(dyn.ShouldCompact(0.25, 1));

  dyn.Compact();
  EXPECT_EQ(dyn.overlay_arcs(), 0u);
  EXPECT_EQ(dyn.triangles(), t);
  EXPECT_EQ(dyn.num_edges(), m);
  EXPECT_EQ(dyn.seq(), seq);
  // The new base is the merged graph; fresh mutations keep working.
  EXPECT_TRUE(dyn.base().HasEdge(3, 5));
  EXPECT_FALSE(dyn.base().HasEdge(0, 1));
  ASSERT_TRUE(dyn.Apply(std::vector<EdgeMutation>{{0, 1, true}}).ok());
  EXPECT_EQ(dyn.triangles(), t + 2);  // 0-1 re-closes two K4 triangles
}

// ---------------------------------------------------------------------------
// Compaction container bit-identity

TEST(CompactTest, MaterializedContainerIsBitIdenticalToFreshConvert) {
  DynGraph dyn = DynGraph::FromBase(K4PlusPath());
  ASSERT_TRUE(
      dyn.Apply(std::vector<EdgeMutation>{{3, 5, true}, {2, 3, false}}).ok());
  const Graph merged = dyn.MaterializeGraph();

  const std::vector<OrientSpec> specs = {
      OrientSpec{PermutationKind::kDescending, 0},
      OrientSpec{PermutationKind::kUniform, 7}};

  TlgWriteOptions wopts;
  wopts.orientations = specs;
  const std::string compacted = TempPath("compact.tlg");
  ASSERT_TRUE(WriteTlgFile(merged, compacted, wopts).ok());

  // Fresh convert of the same edge list, sharing no in-memory state.
  auto fresh_graph = Graph::FromEdges(merged.num_nodes(), merged.EdgeList());
  ASSERT_TRUE(fresh_graph.ok());
  const std::string fresh = TempPath("fresh.tlg");
  ASSERT_TRUE(WriteTlgFile(fresh_graph.ValueOrDie(), fresh, wopts).ok());

  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string a = read_all(compacted);
  const std::string b = read_all(fresh);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "compacted container must be bit-identical";

  // And it loads back as the same graph.
  auto loaded = TlgFile::Open(compacted);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph().EdgeList(), merged.EdgeList());
  ::unlink(compacted.c_str());
  ::unlink(fresh.c_str());
}

// ---------------------------------------------------------------------------
// Replay verifier

TEST(ReplayTest, RandomLogPassesBothChecksWithMidReplayCompaction) {
  Rng rng(7);
  const int kNodes = 20;
  auto base = Graph::FromEdges(
      kNodes, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  ASSERT_TRUE(base.ok());

  std::vector<EdgeMutation> log;
  for (int i = 0; i < 600; ++i) {
    EdgeMutation m;
    m.u = static_cast<NodeId>(rng.NextBounded(kNodes));
    do {
      m.v = static_cast<NodeId>(rng.NextBounded(kNodes));
    } while (m.v == m.u);
    m.insert = rng.NextDouble() < 0.7;
    log.push_back(m);
  }

  ReplayOptions options;
  options.batch_size = 64;
  options.compact_path = TempPath("replay_compact.tlg");
  options.fresh_path = TempPath("replay_fresh.tlg");
  options.orientations = {OrientSpec{PermutationKind::kDescending, 0}};
  options.recount_orient = OrientSpec{PermutationKind::kDescending, 0};
  // Tiny trigger so the replay exercises the production compaction path.
  options.compact_overlay_fraction = 0.05;
  options.compact_min_arcs = 1;

  auto report = ReplayVerify(base.ValueOrDie(), log, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ReplayReport& r = *report;
  EXPECT_EQ(r.mutations, log.size());
  EXPECT_EQ(r.applied + r.noops, r.mutations);
  EXPECT_GT(r.compactions, 0u);
  EXPECT_TRUE(r.counts_match)
      << "incremental " << r.incremental_triangles << " vs T1 " << r.recount_t1
      << " / T2 " << r.recount_t2;
  EXPECT_EQ(r.incremental_triangles, r.recount_t1);
  EXPECT_EQ(r.recount_t1, r.recount_t2);
  EXPECT_TRUE(r.tlg_checked);
  EXPECT_TRUE(r.tlg_bitmatch);
  EXPECT_GT(r.predicted_ops, 0.0);
  EXPECT_GT(r.comparisons, 0);
  EXPECT_TRUE(ReplayPassed(r));
  ::unlink(options.compact_path.c_str());
  ::unlink(options.fresh_path.c_str());
}

TEST(ReplayTest, CountsOnlyModeSkipsTheContainerCheck) {
  auto base = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}});
  ASSERT_TRUE(base.ok());
  const std::vector<EdgeMutation> log = {{0, 3, true}, {1, 3, true}};

  ReplayOptions options;
  options.verify_tlg = false;
  auto report = ReplayVerify(base.ValueOrDie(), log, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->counts_match);
  EXPECT_FALSE(report->tlg_checked);
  EXPECT_EQ(report->incremental_triangles, 2u);  // 0-1-2 plus 0-1-3
  EXPECT_TRUE(ReplayPassed(*report));
}

// ---------------------------------------------------------------------------
// Mutation cost formula

TEST(CostTest, PredictedMutationOpsIsTheMergeScanBound) {
  // g = identity, h == 1: the price of touching (u, v) is d(u) + d(v),
  // the merge kernel's scan bound on the two sorted rows.
  EXPECT_EQ(cost::PredictedMutationOps(3, 5), 8.0);
  EXPECT_EQ(cost::PredictedMutationOps(0, 0), 0.0);
  // Out-of-range endpoints price as degree zero, never negative.
  EXPECT_EQ(cost::PredictedMutationOps(-1, 4), 4.0);
}

}  // namespace
}  // namespace trilist::dyn
