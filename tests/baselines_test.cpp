#include "src/algo/baselines.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/algo/brute_force.h"
#include "src/algo/cost.h"
#include "src/algo/registry.h"
#include "src/degree/graphicality.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/residual_generator.h"
#include "src/graph/builder.h"
#include "src/order/pipeline.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

Graph TestGraph(uint64_t seed) {
  Rng rng(seed);
  const DiscretePareto base(1.5, 6.0);
  const TruncatedDistribution fn(base, 20);
  std::vector<int64_t> degrees(200);
  for (auto& d : degrees) d = fn.Sample(&rng);
  MakeGraphic(&degrees);
  ResidualGenOptions options;
  options.strict = false;
  return GenerateExactDegree(degrees, &rng, nullptr, options).ValueOrDie();
}

std::vector<CanonicalTriangle> CollectCanonical(
    const std::vector<Triangle>& triangles) {
  std::vector<CanonicalTriangle> out;
  out.reserve(triangles.size());
  for (const Triangle& t : triangles) out.push_back({t.x, t.y, t.z});
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ClassicVertexIteratorTest, FindsAllTriangles) {
  const Graph g = TestGraph(1);
  CollectingSink sink;
  const OpCounts ops = RunClassicVertexIterator(g, &sink);
  EXPECT_EQ(CollectCanonical(sink.triangles()), NeighborPairTriangles(g));
  // Candidate checks: sum_i C(d_i, 2) exactly.
  double expected = 0.0;
  for (int64_t d : g.Degrees()) {
    expected += 0.5 * static_cast<double>(d) * static_cast<double>(d - 1);
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(ops.candidate_checks), expected);
}

TEST(ClassicVertexIteratorTest, PaysThreeCornersVsOrientedOne) {
  // Compared with the oriented+relabeled T1 under theta_U, the classic
  // iterator touches each wedge at all corners: its cost is the full
  // sum C(d,2), roughly 3x the uniform-orientation vertex iterator
  // (Section 5.3's factor-3 discussion).
  const Graph g = TestGraph(2);
  CollectingSink sink;
  const OpCounts classic = RunClassicVertexIterator(g, &sink);
  Rng rng(3);
  double oriented_sum = 0.0;
  const int kReps = 8;
  for (int r = 0; r < kReps; ++r) {
    const OrientedGraph og = OrientNamed(g, PermutationKind::kUniform, &rng);
    oriented_sum += MethodCostTotal(og, Method::kT1);
  }
  const double ratio =
      static_cast<double>(classic.candidate_checks) / (oriented_sum / kReps);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(NoRelabelT1Test, DoublesTheCandidateCount) {
  const Graph g = TestGraph(4);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  const DirectedEdgeSet arcs(og);
  CollectingSink relabeled;
  CollectingSink unordered;
  const OpCounts t1 = RunMethod(Method::kT1, og, arcs, &relabeled);
  const OpCounts t1_nr = RunT1NoRelabel(og, arcs, &unordered);
  // Same triangles...
  EXPECT_EQ(CollectCanonical(relabeled.triangles()).size(),
            CollectCanonical(unordered.triangles()).size());
  // ...at exactly twice the candidate checks (X(X-1) vs C(X,2)).
  EXPECT_EQ(t1_nr.candidate_checks, 2 * t1.candidate_checks);
}

TEST(NoRelabelE1Test, LocalScanCannotStopEarly) {
  const Graph g = TestGraph(5);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CollectingSink a;
  CollectingSink b;
  const OpCounts e1 = RunMethod(Method::kE1, og, &a);
  const OpCounts e1_nr = RunE1NoRelabel(og, &b);
  EXPECT_EQ(a.Sorted(), b.Sorted());
  // local doubles (X^2 vs C(X,2)); remote unchanged.
  EXPECT_GE(e1_nr.local_scans, 2 * e1.local_scans);
  EXPECT_EQ(e1_nr.remote_scans, e1.remote_scans);
}

TEST(ForwardTest, MatchesReferenceTriangles) {
  const Graph g = TestGraph(6);
  CollectingSink sink;
  RunForward(g, &sink);
  EXPECT_EQ(CollectCanonical(sink.triangles()), NeighborPairTriangles(g));
}

TEST(ForwardTest, WorksOnCornerCases) {
  for (const Graph& g :
       {MakeEmpty(5), MakeComplete(3), MakeStar(10), MakeComplete(8)}) {
    CollectingSink sink;
    RunForward(g, &sink);
    EXPECT_EQ(CollectCanonical(sink.triangles()).size(),
              NeighborPairTriangles(g).size());
  }
}

TEST(CompactForwardTest, MatchesReferenceTriangles) {
  const Graph g = TestGraph(7);
  CollectingSink sink;
  RunCompactForward(g, &sink);
  EXPECT_EQ(CollectCanonical(sink.triangles()), NeighborPairTriangles(g));
}

TEST(CompactForwardTest, CostIsE1ClassUnderDescending) {
  const Graph g = TestGraph(8);
  CollectingSink sink;
  const OpCounts cf = RunCompactForward(g, &sink);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(cf.local_scans + cf.remote_scans),
      MethodCostTotal(og, Method::kE1));
}

TEST(ForwardTest, CheaperThanClassicOnHeavyTails) {
  const Graph g = TestGraph(9);
  CollectingSink s1;
  CollectingSink s2;
  const OpCounts fw = RunForward(g, &s1);
  const OpCounts classic = RunClassicVertexIterator(g, &s2);
  EXPECT_LT(fw.local_scans + fw.remote_scans, classic.candidate_checks);
}

}  // namespace
}  // namespace trilist
