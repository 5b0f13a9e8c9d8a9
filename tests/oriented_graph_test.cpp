#include "src/graph/oriented_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/gen/erdos_renyi.h"
#include "src/graph/builder.h"
#include "src/graph/edge_set.h"
#include "src/order/pipeline.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

TEST(OrientedGraphTest, TriangleUnderIdentityLabels) {
  const Graph g = MakeComplete(3);
  const std::vector<NodeId> labels = {0, 1, 2};
  const OrientedGraph og = OrientedGraph::FromLabels(g, labels);
  EXPECT_EQ(og.num_nodes(), 3u);
  EXPECT_EQ(og.num_arcs(), 3u);
  EXPECT_EQ(og.OutDegree(0), 0);
  EXPECT_EQ(og.OutDegree(1), 1);
  EXPECT_EQ(og.OutDegree(2), 2);
  EXPECT_EQ(og.InDegree(0), 2);
  EXPECT_EQ(og.InDegree(2), 0);
  EXPECT_TRUE(og.HasArc(2, 0));
  EXPECT_TRUE(og.HasArc(2, 1));
  EXPECT_TRUE(og.HasArc(1, 0));
  EXPECT_FALSE(og.HasArc(0, 1));
  EXPECT_FALSE(og.HasArc(0, 2));
}

TEST(OrientedGraphTest, RelabelingPermutesStructure) {
  // Path 0-1-2 with labels reversed: original 0 -> label 2, etc.
  const Graph g = MakePath(3);
  const OrientedGraph og =
      OrientedGraph::FromLabels(g, {2, 1, 0});
  EXPECT_EQ(og.OriginalOf(2), 0u);
  EXPECT_EQ(og.OriginalOf(0), 2u);
  // Original edges (0,1) and (1,2) become arcs 2->1 and 1->0.
  EXPECT_TRUE(og.HasArc(2, 1));
  EXPECT_TRUE(og.HasArc(1, 0));
  EXPECT_FALSE(og.HasArc(2, 0));
}

TEST(OrientedGraphTest, ListsAreSortedAndPartitioned) {
  Rng rng(3);
  const Graph g = GenerateGnp(200, 0.05, &rng);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kUniform, &rng);
  for (size_t i = 0; i < og.num_nodes(); ++i) {
    const auto node = static_cast<NodeId>(i);
    const auto out = og.OutNeighbors(node);
    const auto in = og.InNeighbors(node);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
    for (NodeId w : out) EXPECT_LT(w, node);
    for (NodeId w : in) EXPECT_GT(w, node);
    EXPECT_EQ(og.TotalDegree(node), og.OutDegree(node) + og.InDegree(node));
  }
}

class OrientationInvariantTest
    : public ::testing::TestWithParam<PermutationKind> {};

TEST_P(OrientationInvariantTest, ArcCountsAndDegreeSums) {
  Rng rng(17);
  const Graph g = GenerateGnp(300, 0.03, &rng);
  const OrientedGraph og = OrientNamed(g, GetParam(), &rng);
  EXPECT_EQ(og.num_arcs(), g.num_edges());
  int64_t sum_x = 0;
  int64_t sum_y = 0;
  for (size_t i = 0; i < og.num_nodes(); ++i) {
    sum_x += og.OutDegree(static_cast<NodeId>(i));
    sum_y += og.InDegree(static_cast<NodeId>(i));
  }
  // sum X_i = sum Y_i = m (Section 2.3).
  EXPECT_EQ(sum_x, static_cast<int64_t>(g.num_edges()));
  EXPECT_EQ(sum_y, static_cast<int64_t>(g.num_edges()));
}

TEST_P(OrientationInvariantTest, TotalDegreePreserved) {
  Rng rng(19);
  const Graph g = GenerateGnp(300, 0.03, &rng);
  const OrientedGraph og = OrientNamed(g, GetParam(), &rng);
  for (size_t i = 0; i < og.num_nodes(); ++i) {
    const auto node = static_cast<NodeId>(i);
    EXPECT_EQ(og.TotalDegree(node),
              g.Degree(og.OriginalOf(node)));
  }
}

TEST_P(OrientationInvariantTest, OriginalOfIsBijective) {
  Rng rng(23);
  const Graph g = GenerateGnp(100, 0.1, &rng);
  const OrientedGraph og = OrientNamed(g, GetParam(), &rng);
  std::vector<bool> seen(g.num_nodes(), false);
  for (size_t i = 0; i < og.num_nodes(); ++i) {
    const NodeId orig = og.OriginalOf(static_cast<NodeId>(i));
    ASSERT_LT(orig, g.num_nodes());
    EXPECT_FALSE(seen[orig]);
    seen[orig] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, OrientationInvariantTest,
    ::testing::Values(PermutationKind::kAscending,
                      PermutationKind::kDescending,
                      PermutationKind::kRoundRobin,
                      PermutationKind::kComplementaryRoundRobin,
                      PermutationKind::kUniform,
                      PermutationKind::kDegenerate));

TEST(OrientedGraphTest, AscendingDegreeRanksSortByDegreeThenId) {
  // Degrees: star center 0 has degree 4, leaves degree 1.
  const Graph g = MakeStar(5);
  const auto rank = AscendingDegreeRanks(g);
  EXPECT_EQ(rank[0], 4u);  // the hub is last
  // Leaves keep ID order.
  EXPECT_EQ(rank[1], 0u);
  EXPECT_EQ(rank[2], 1u);
  EXPECT_EQ(rank[3], 2u);
  EXPECT_EQ(rank[4], 3u);
}

TEST(OrientedGraphTest, DescendingOrientationBoundsHubOutDegree) {
  // Under theta_D the hub gets the smallest label, hence out-degree 0.
  const Graph g = MakeStar(6);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  // Hub's label is 0.
  EXPECT_EQ(og.OriginalOf(0), 0u);
  EXPECT_EQ(og.OutDegree(0), 0);
  EXPECT_EQ(og.InDegree(0), 5);
}

TEST(OrientedGraphTest, AscendingOrientationGivesHubFullOutDegree) {
  const Graph g = MakeStar(6);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);
  const auto hub_label = static_cast<NodeId>(5);
  EXPECT_EQ(og.OriginalOf(hub_label), 0u);
  EXPECT_EQ(og.OutDegree(hub_label), 5);
}

/// The index's slot-array bytes: every row's capacity bit_ceil(2 d+(v))
/// plus, when there is an arc, the kGroup - 1 pad slots.
size_t SlotBytes(const OrientedGraph& og) {
  size_t slots = 0;
  for (size_t i = 0; i < og.num_nodes(); ++i) {
    const auto d = static_cast<size_t>(og.OutDegree(static_cast<NodeId>(i)));
    slots += d == 0 ? 0 : std::bit_ceil(2 * d);
  }
  if (slots > 0) slots += DirectedEdgeSet::kGroup - 1;
  return 4 * slots;
}

/// Checks Contains against a binary search of the sorted out-row for every
/// (from, to) in [0, n)^2, plus targets past n and the empty marker, that
/// Row(from).Contains agrees with Contains(from, .) on each of them, and
/// the size and footprint bounds.
void ExpectExactMembership(const OrientedGraph& og) {
  const DirectedEdgeSet arcs(og);
  const size_t n = og.num_nodes();
  const size_t m = og.num_arcs();
  EXPECT_EQ(arcs.size(), m);
  // The 8-slot loads need kGroup - 1 trailing pad slots when m > 0.
  const size_t pad = m > 0 ? 4 * (DirectedEdgeSet::kGroup - 1) : 0;
  EXPECT_GE(arcs.bytes(), 4 * 2 * m + 8 * (n + 1));
  EXPECT_LE(arcs.bytes(), 4 * 4 * m + 8 * (n + 1) + pad);
  EXPECT_EQ(arcs.bytes(), SlotBytes(og) + 8 * (n + 1));
  size_t found = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto from = static_cast<NodeId>(i);
    const auto out = og.OutNeighbors(from);
    const auto row = arcs.Row(from);
    for (size_t j = 0; j < n; ++j) {
      const auto to = static_cast<NodeId>(j);
      const bool want = std::binary_search(out.begin(), out.end(), to);
      ASSERT_EQ(arcs.Contains(from, to), want) << from << " -> " << to;
      ASSERT_EQ(row.Contains(to), want) << from << " -> " << to;
      found += want ? 1 : 0;
    }
    // Absent targets hash all over the row, so misses walk (and wrap)
    // past every full group.
    for (size_t j = n; j < n + 2048; ++j) {
      const auto to = static_cast<NodeId>(j);
      ASSERT_FALSE(arcs.Contains(from, to));
      ASSERT_FALSE(row.Contains(to));
    }
    ASSERT_FALSE(arcs.Contains(from, DirectedEdgeSet::kEmpty));
    ASSERT_FALSE(row.Contains(DirectedEdgeSet::kEmpty));
  }
  EXPECT_EQ(found, m);
}

Graph Build(size_t n, const std::vector<Edge>& edges) {
  Result<Graph> g = Graph::FromEdges(n, edges);
  EXPECT_TRUE(g.ok());
  return std::move(g).ValueOrDie();
}

/// Hub 0 joined to `hub_degree` random nodes of a sparse G(n, p)
/// background, so the hub's row holds scattered labels that collide.
Graph HubOnBackground(size_t n, size_t hub_degree, Rng* rng) {
  const Graph bg = GenerateGnp(n, 4.0 / static_cast<double>(n), rng);
  std::vector<Edge> edges;
  std::vector<char> joined(n, 0);
  for (size_t u = 1; u < n; ++u) {
    for (NodeId v : bg.Neighbors(static_cast<NodeId>(u))) {
      if (v == 0) joined[u] = 1;
      if (v > u) edges.emplace_back(static_cast<NodeId>(u), v);
    }
  }
  size_t degree = std::count(joined.begin(), joined.end(), 1);
  while (degree < hub_degree) {
    const size_t u = 1 + rng->NextBounded(n - 1);
    if (joined[u] == 0) {
      joined[u] = 1;
      ++degree;
    }
  }
  for (size_t u = 1; u < n; ++u) {
    if (joined[u] != 0) edges.emplace_back(0, static_cast<NodeId>(u));
  }
  return Build(n, edges);
}

TEST(DirectedEdgeSetTest, ContainsExactlyTheArcs) {
  Rng rng(29);
  std::vector<std::pair<const char*, Graph>> inputs;
  inputs.emplace_back("n=0", MakeEmpty(0));
  inputs.emplace_back("isolated", MakeEmpty(6));
  inputs.emplace_back("isolated+edges", Build(12, {{1, 4}, {4, 7}, {7, 1},
                                                   {9, 10}}));
  inputs.emplace_back("path", MakePath(9));  // out-degree 1 rows
  inputs.emplace_back("K5", MakeComplete(5));
  inputs.emplace_back("gnp", GenerateGnp(80, 0.1, &rng));
  inputs.emplace_back("star", MakeStar(1601));
  inputs.emplace_back("hub", HubOnBackground(2500, 1500, &rng));
  // Under theta_A the star's hub takes the last label and all 1,600 arcs.
  ASSERT_EQ(OrientNamed(inputs[6].second, PermutationKind::kAscending)
                .OutDegree(1600),
            1600);
  for (const auto& [name, g] : inputs) {
    for (PermutationKind kind :
         {PermutationKind::kDescending, PermutationKind::kAscending,
          PermutationKind::kUniform}) {
      SCOPED_TRACE(std::string(name) + " " + PermutationKindName(kind));
      ExpectExactMembership(OrientNamed(g, kind, &rng));
    }
  }
  // Identity labels on K4: the last row, 3, holds {0, 1, 2}.
  const OrientedGraph k4 =
      OrientedGraph::FromLabels(MakeComplete(4), {0, 1, 2, 3});
  ASSERT_EQ(k4.OutDegree(3), 3);
  ExpectExactMembership(k4);
}

/// Home slot of `to` in a row of capacity `cap`: a copy of the index's
/// documented multiplicative hash (edge_set.h), so a test can pick labels
/// that collide.
size_t HomeSlot(NodeId to, size_t cap) {
  return static_cast<size_t>(to * 0x9E3779B1u) & (cap - 1);
}

TEST(DirectedEdgeSetTest, FullGroupSpillsAndWrapsAtRowEnd) {
  // Row `src` holds 12 targets whose homes all fall in the row's last
  // aligned group, slots [24, 32) of capacity bit_ceil(24) = 32. Eight
  // fill that group; the rest spill into the next group, which wraps to
  // slots [0, 8), and so do the lookups of them and of absent labels
  // homed there.
  constexpr size_t kCap = 32;
  constexpr size_t kLast = kCap - DirectedEdgeSet::kGroup;
  std::vector<NodeId> targets;
  std::vector<NodeId> absent;  // homed in the last group, not in the row
  for (NodeId t = 0; absent.size() < 64; ++t) {
    if (HomeSlot(t, kCap) < kLast) continue;
    (targets.size() < 12 ? targets : absent).push_back(t);
  }
  const NodeId src = absent.back() + 1;  // above every label: row src
  std::vector<Edge> edges;
  for (NodeId t : targets) edges.emplace_back(t, src);
  const size_t n = src + size_t{1};
  const OrientedGraph og = OrientedGraph::FromLabels(
      Build(n, edges), [&] {
        std::vector<NodeId> labels(n);
        std::iota(labels.begin(), labels.end(), NodeId{0});
        return labels;
      }());
  ASSERT_EQ(og.OutDegree(src), 12);
  const DirectedEdgeSet arcs(og);
  const auto row = arcs.Row(src);
  for (NodeId t : targets) {
    EXPECT_TRUE(arcs.Contains(src, t)) << t;
    EXPECT_TRUE(row.Contains(t)) << t;
  }
  for (NodeId t : absent) {
    EXPECT_FALSE(arcs.Contains(src, t)) << t;
    EXPECT_FALSE(row.Contains(t)) << t;
  }
  // Every group has an empty slot except the full last one, so the
  // kEmpty key matches empty slots only and is never reported held.
  EXPECT_FALSE(arcs.Contains(src, DirectedEdgeSet::kEmpty));
  EXPECT_FALSE(row.Contains(DirectedEdgeSet::kEmpty));
  ExpectExactMembership(og);
}

TEST(DirectedEdgeSetTest, NarrowLastRowReadsOnlyItsOwnSlots) {
  // The last row has capacity 2 (one arc) or 4 (two arcs): its 8-slot
  // load runs past the row into the trailing pad, whose slots must not
  // count as hits or lanes.
  const std::vector<NodeId> identity = {0, 1, 2, 3};
  const OrientedGraph cap2 = OrientedGraph::FromLabels(
      Build(4, {{1, 0}, {2, 1}, {3, 2}}), identity);
  const OrientedGraph cap4 = OrientedGraph::FromLabels(
      Build(4, {{1, 0}, {3, 0}, {3, 2}}), identity);
  ASSERT_EQ(cap2.OutDegree(3), 1);
  ASSERT_EQ(cap4.OutDegree(3), 2);
  for (const OrientedGraph* og : {&cap2, &cap4}) {
    const DirectedEdgeSet arcs(*og);
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_FALSE(arcs.Contains(v, DirectedEdgeSet::kEmpty)) << v;
    }
    ExpectExactMembership(*og);
  }
  // Footprint: the parent layout (row capacities and offsets) plus the
  // 28-byte pad; an arc-free index has no pad.
  EXPECT_EQ(DirectedEdgeSet(cap2).bytes(), 4 * (2 + 2 + 2 + 7) + 8 * 5);
  EXPECT_EQ(DirectedEdgeSet(cap4).bytes(), 4 * (2 + 4 + 7) + 8 * 5);
  EXPECT_EQ(DirectedEdgeSet(OrientNamed(MakeEmpty(4),
                                        PermutationKind::kDescending))
                .bytes(),
            8 * 5);
}

TEST(DirectedEdgeSetTest, NextRowTargetsAreNotFoundInThisRow) {
  // Identity labels: row 1 is empty, row 2 = {0}, row 3 = {1, 2},
  // row 4 = {0, 3}. Rows sit back to back in one slot array.
  const OrientedGraph og = OrientedGraph::FromLabels(
      Build(5, {{2, 0}, {3, 1}, {3, 2}, {4, 0}, {4, 3}}), {0, 1, 2, 3, 4});
  const DirectedEdgeSet arcs(og);
  EXPECT_TRUE(arcs.Contains(2, 0));
  EXPECT_FALSE(arcs.Contains(1, 0));  // empty row before a non-empty one
  EXPECT_TRUE(arcs.Contains(3, 1));
  EXPECT_FALSE(arcs.Contains(2, 1));
  EXPECT_FALSE(arcs.Contains(2, 2));
  EXPECT_TRUE(arcs.Contains(4, 3));
  EXPECT_FALSE(arcs.Contains(3, 0));
  EXPECT_FALSE(arcs.Contains(3, 3));
  // The same on random graphs: a target of row v + 1 that row v lacks.
  Rng rng(37);
  const Graph g = GenerateGnp(200, 0.05, &rng);
  for (PermutationKind kind :
       {PermutationKind::kDescending, PermutationKind::kAscending,
        PermutationKind::kUniform}) {
    const OrientedGraph oriented = OrientNamed(g, kind, &rng);
    const DirectedEdgeSet index(oriented);
    for (size_t i = 0; i + 1 < oriented.num_nodes(); ++i) {
      const auto v = static_cast<NodeId>(i);
      const auto row = oriented.OutNeighbors(v);
      for (NodeId t : oriented.OutNeighbors(v + 1)) {
        if (std::binary_search(row.begin(), row.end(), t)) continue;
        EXPECT_TRUE(index.Contains(v + 1, t));
        EXPECT_FALSE(index.Contains(v, t)) << v << " -> " << t;
      }
    }
  }
}

}  // namespace
}  // namespace trilist
