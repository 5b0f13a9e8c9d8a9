#include "src/graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/degree/degree_stats.h"
#include "src/graph/builder.h"

namespace trilist {
namespace {

TEST(GraphTest, EmptyGraph) {
  const Graph g = MakeEmpty(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(GraphTest, ZeroNodes) {
  auto r = Graph::FromEdges(0, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 0u);
}

TEST(GraphTest, FromEdgesBuildsSortedCsr) {
  auto r = Graph::FromEdges(4, {{2, 0}, {0, 1}, {3, 0}});
  ASSERT_TRUE(r.ok());
  const Graph& g = *r;
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.Degree(0), 3);
  EXPECT_EQ(g.Degree(1), 1);
  const auto nb = g.Neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 1u);
  EXPECT_EQ(nb[1], 2u);
  EXPECT_EQ(nb[2], 3u);
}

TEST(GraphTest, AscendingDegreesIsTheSortedDegreeVector) {
  // Isolated nodes, repeated degrees and a hub: the counting sort must
  // equal sorting Degrees().
  auto r = Graph::FromEdges(
      7, {{0, 1}, {0, 2}, {0, 3}, {0, 5}, {1, 2}, {3, 5}});
  ASSERT_TRUE(r.ok());
  std::vector<int64_t> sorted = r->Degrees();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(AscendingDegrees(*r), sorted);
  EXPECT_EQ(AscendingDegrees(MakeEmpty(3)), std::vector<int64_t>(3, 0));
  EXPECT_TRUE(AscendingDegrees(MakeEmpty(0)).empty());
}

TEST(GraphTest, RejectsSelfLoop) {
  auto r = Graph::FromEdges(3, {{1, 1}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, RejectsDuplicateEdge) {
  auto r = Graph::FromEdges(3, {{0, 1}, {1, 0}});
  EXPECT_FALSE(r.ok());
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  auto r = Graph::FromEdges(3, {{0, 3}});
  EXPECT_FALSE(r.ok());
}

TEST(GraphTest, HasEdgeSymmetric) {
  auto g = Graph::FromEdges(4, {{0, 1}, {2, 3}}).ValueOrDie();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 99));
}

TEST(GraphTest, EdgeListCanonical) {
  auto g = Graph::FromEdges(4, {{3, 1}, {0, 2}}).ValueOrDie();
  const auto edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 2}));
  EXPECT_EQ(edges[1], (Edge{1, 3}));
}

TEST(GraphTest, DegreesVector) {
  const Graph g = MakeStar(5);
  const auto d = g.Degrees();
  EXPECT_EQ(d, (std::vector<int64_t>{4, 1, 1, 1, 1}));
  EXPECT_EQ(g.MaxDegree(), 4);
}

TEST(BuilderTest, FactoriesHaveExpectedShape) {
  EXPECT_EQ(MakeComplete(5).num_edges(), 10u);
  EXPECT_EQ(MakeStar(6).num_edges(), 5u);
  EXPECT_EQ(MakePath(6).num_edges(), 5u);
  EXPECT_EQ(MakeCycle(6).num_edges(), 6u);
  const Graph bow = MakeBowTie(3);
  EXPECT_EQ(bow.num_nodes(), 5u);
  EXPECT_EQ(bow.num_edges(), 6u);  // two triangles sharing node 0
  EXPECT_EQ(bow.Degree(0), 4);
}

TEST(BuilderTest, BuildValidates) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate in reverse orientation
  auto r = std::move(b).Build();
  EXPECT_FALSE(r.ok());
}

TEST(BuilderTest, CountsEdges) {
  GraphBuilder b(10);
  EXPECT_EQ(b.num_edges(), 0u);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  EXPECT_EQ(b.num_edges(), 2u);
  EXPECT_EQ(b.num_nodes(), 10u);
}

}  // namespace
}  // namespace trilist
