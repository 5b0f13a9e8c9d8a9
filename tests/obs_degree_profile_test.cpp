#include "src/obs/degree_profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/algo/registry.h"
#include "src/algo/triangle_sink.h"
#include "src/core/h_function.h"
#include "src/degree/graphicality.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/gen/residual_generator.h"
#include "src/graph/builder.h"
#include "src/graph/edge_set.h"
#include "src/order/pipeline.h"
#include "src/util/json_writer.h"
#include "src/util/rng.h"

namespace trilist::obs {
namespace {

Graph HeavyTailedGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  const DiscretePareto base(1.5, 6.0);
  const TruncatedDistribution fn(base, 25);
  std::vector<int64_t> degrees(n);
  for (auto& d : degrees) d = fn.Sample(&rng);
  MakeGraphic(&degrees);
  ResidualGenOptions options;
  options.strict = false;
  return GenerateExactDegree(degrees, &rng, nullptr, options).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Bucket geometry.
// ---------------------------------------------------------------------------

TEST(DegreeBucketTest, IndexBoundaries) {
  EXPECT_EQ(DegreeBucketIndex(-5), 0);
  EXPECT_EQ(DegreeBucketIndex(0), 0);
  EXPECT_EQ(DegreeBucketIndex(1), 1);
  EXPECT_EQ(DegreeBucketIndex(2), 2);
  EXPECT_EQ(DegreeBucketIndex(3), 2);
  EXPECT_EQ(DegreeBucketIndex(4), 3);
  EXPECT_EQ(DegreeBucketIndex(7), 3);
  EXPECT_EQ(DegreeBucketIndex(8), 4);
  EXPECT_EQ(DegreeBucketIndex((int64_t{1} << 40) - 1), 40);
  EXPECT_EQ(DegreeBucketIndex(int64_t{1} << 40), 41);
}

TEST(DegreeBucketTest, RangesRoundTripThroughIndex) {
  EXPECT_EQ(BucketMinDegree(0), 0);
  EXPECT_EQ(BucketMaxDegree(0), 0);
  for (int k = 1; k <= 40; ++k) {
    // A bucket's own endpoints land back in the bucket, and the
    // neighbors just outside land in the adjacent buckets.
    EXPECT_EQ(DegreeBucketIndex(BucketMinDegree(k)), k);
    EXPECT_EQ(DegreeBucketIndex(BucketMaxDegree(k)), k);
    EXPECT_EQ(DegreeBucketIndex(BucketMinDegree(k) - 1), k - 1);
    EXPECT_EQ(BucketMaxDegree(k) + 1, BucketMinDegree(k + 1));
  }
}

TEST(DegreeBucketTest, ResidualDegenerateGuards) {
  DegreeBucket b;
  EXPECT_EQ(b.Residual(), 0.0);  // 0 measured / 0 predicted
  b.measured_ops = 5;
  EXPECT_EQ(b.Residual(), 5.0);  // measured with vanished prediction
  b.predicted_ops = 10.0;
  EXPECT_DOUBLE_EQ(b.Residual(), -0.5);
  DegreeProfile p;
  EXPECT_EQ(p.TotalResidual(), 0.0);
}

// ---------------------------------------------------------------------------
// Profile construction.
// ---------------------------------------------------------------------------

TEST(BuildDegreeProfileTest, GroupsNodesAndPairsPrediction) {
  // Star with 8 leaves: hub degree 8 (bucket 4), leaves degree 1
  // (bucket 1). Ascending degree order gives the hub the highest label,
  // so every arc points hub -> leaf: X_hub = 8, X_leaf = 0.
  const Graph g = MakeStar(9);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);

  const DegreeProfile profile = BuildDegreeProfile(Method::kT1, og);
  EXPECT_EQ(profile.method, Method::kT1);
  ASSERT_EQ(profile.buckets.size(), 5u);  // dense up to bucket 4

  const DegreeBucket& leaves = profile.buckets[1];
  EXPECT_EQ(leaves.nodes, 8);
  EXPECT_EQ(leaves.measured_ops, 0);  // C(0, 2) per leaf
  // d = 1 nodes carry no prediction: g(1) = 0 and q is ill-defined.
  EXPECT_EQ(leaves.predicted_ops, 0.0);

  const DegreeBucket& hub = profile.buckets[4];
  EXPECT_EQ(hub.nodes, 1);
  EXPECT_EQ(hub.d_min, 8);
  EXPECT_EQ(hub.d_max, 15);
  EXPECT_EQ(hub.measured_ops, 28);  // C(8, 2) out-neighbor pairs
  // Hand check: g(8) h_T1(8/8) = 56 * h_T1(1).
  EXPECT_DOUBLE_EQ(hub.predicted_ops, 56.0 * EvalH(Method::kT1, 1.0));

  EXPECT_EQ(profile.total_measured, 28);
  EXPECT_DOUBLE_EQ(profile.total_predicted, hub.predicted_ops);
  EXPECT_EQ(profile.buckets[2].nodes, 0);  // empty middle buckets exist
  EXPECT_EQ(profile.buckets[3].nodes, 0);
}

TEST(BuildDegreeProfileTest, MatchesPerNodeFormulaOnRandomGraph) {
  const Graph g = HeavyTailedGraph(400, 99);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  const DegreeProfile profile = BuildDegreeProfile(Method::kL1, og);

  // Recompute the same aggregation with a plain per-node loop.
  int64_t measured = 0;
  double predicted = 0;
  for (size_t i = 0; i < og.num_nodes(); ++i) {
    const auto v = static_cast<NodeId>(i);
    measured += NodeCost(Method::kL1, og.OutDegree(v), og.InDegree(v));
    const int64_t d = og.TotalDegree(v);
    if (d >= 2) {
      const double q =
          static_cast<double>(og.OutDegree(v)) / static_cast<double>(d);
      predicted +=
          GFunction(static_cast<double>(d)) * EvalH(Method::kL1, q);
    }
  }
  EXPECT_EQ(profile.total_measured, measured);
  EXPECT_DOUBLE_EQ(profile.total_predicted, predicted);

  int64_t bucket_nodes = 0;
  for (const DegreeBucket& b : profile.buckets) {
    EXPECT_EQ(b.d_min, BucketMinDegree(b.bucket));
    EXPECT_EQ(b.d_max, BucketMaxDegree(b.bucket));
    bucket_nodes += b.nodes;
  }
  EXPECT_EQ(bucket_nodes, static_cast<int64_t>(og.num_nodes()));
}

// Hand-computed per-node charges (Tables 1-2) on two small graphs, each
// checked against a real listing pass.
TEST(BuildDegreeProfileTest, HandComputedStarCharges) {
  // Star with 8 leaves. theta_A gives the hub the top label (X = 8,
  // Y = 0, leaves X = 0, Y = 1); theta_D the bottom one (X = 0, Y = 8,
  // leaves X = 1, Y = 0). T1 charges C(X,2), T2 and L1 X*Y, E1 C(X,2) +
  // X*Y, E4 C(X,2) + C(Y,2): every leaf costs 0 under both orders.
  const Graph g = MakeStar(9);
  const std::vector<std::pair<PermutationKind, std::vector<int64_t>>>
      hub_charges = {
          // T1, T2, E1, E4, L1
          {PermutationKind::kAscending, {28, 0, 28, 28, 0}},
          {PermutationKind::kDescending, {0, 0, 0, 28, 0}},
      };
  const std::vector<Method> methods = {Method::kT1, Method::kT2,
                                       Method::kE1, Method::kE4,
                                       Method::kL1};
  for (const auto& [order, hub] : hub_charges) {
    const OrientedGraph og = OrientNamed(g, order);
    for (size_t i = 0; i < methods.size(); ++i) {
      const std::string label = std::string(MethodName(methods[i])) + "/" +
                                PermutationKindName(order);
      const DegreeProfile profile = BuildDegreeProfile(methods[i], og);
      ASSERT_EQ(profile.buckets.size(), 5u) << label;
      EXPECT_EQ(profile.buckets[4].measured_ops, hub[i]) << label;
      EXPECT_EQ(profile.buckets[1].measured_ops, 0) << label;
      CountingSink sink;
      EXPECT_EQ(profile.total_measured,
                RunMethod(methods[i], og, &sink).PaperCost())
          << label;
    }
  }
}

TEST(BuildDegreeProfileTest, HandComputedCompleteGraphCharges) {
  // Identity-labelled K4: node v has X = v out- and Y = 3 - v in-arcs.
  const Graph g = MakeComplete(4);
  const OrientedGraph og = Orient(g, Permutation(4));
  const std::vector<std::pair<Method, std::vector<int64_t>>> per_node = {
      {Method::kT1, {0, 0, 1, 3}},  // C(X,2)
      {Method::kT2, {0, 2, 2, 0}},  // X*Y
      {Method::kE1, {0, 2, 3, 3}},  // C(X,2) + X*Y
      {Method::kE4, {3, 1, 1, 3}},  // C(X,2) + C(Y,2)
      {Method::kL1, {0, 2, 2, 0}},  // X*Y
  };
  for (const auto& [m, expected] : per_node) {
    int64_t total = 0;
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_EQ(og.OutDegree(v), v);
      EXPECT_EQ(NodeCost(m, og.OutDegree(v), og.InDegree(v)), expected[v])
          << MethodName(m) << " node " << v;
      total += expected[v];
    }
    const DegreeProfile profile = BuildDegreeProfile(m, og);
    EXPECT_EQ(profile.total_measured, total) << MethodName(m);
    CountingSink sink;
    EXPECT_EQ(RunMethod(m, og, &sink).PaperCost(), total) << MethodName(m);
  }
}

// The core attribution invariant: for every method and order, the
// profile's measured total (per-node Table 1-2 charges) reproduces the
// OpCounts::PaperCost() a real listing pass counts.
TEST(BuildDegreeProfileTest, ProfileTotalMatchesPaperCostForAllMethods) {
  const Graph g = HeavyTailedGraph(600, 7);
  for (const PermutationKind order :
       {PermutationKind::kDescending, PermutationKind::kAscending,
        PermutationKind::kRoundRobin, PermutationKind::kUniform}) {
    Rng rng(5);
    const OrientedGraph og = OrientNamed(g, order, &rng);
    const DirectedEdgeSet arcs(og);
    for (Method m : AllMethods()) {
      CountingSink sink;
      const OpCounts ops = RunMethod(m, og, arcs, &sink);
      const DegreeProfile profile = BuildDegreeProfile(m, og);
      EXPECT_EQ(profile.total_measured, ops.PaperCost())
          << MethodName(m) << "/" << PermutationKindName(order);
      EXPECT_GT(profile.total_predicted, 0.0) << MethodName(m);
    }
  }
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

TEST(DegreeProfileRenderTest, JsonLayout) {
  DegreeProfile profile;
  profile.method = Method::kE1;
  DegreeBucket b;
  b.bucket = 2;
  b.d_min = 2;
  b.d_max = 3;
  b.nodes = 5;
  b.measured_ops = 768;
  b.predicted_ops = 512.0;
  profile.buckets.push_back(b);
  profile.total_measured = 768;
  profile.total_predicted = 512.0;

  JsonWriter w;
  AppendDegreeProfileJson(profile, &w);
  const std::string json = std::move(w).Finish();
  EXPECT_NE(json.find("\"method\": \"E1\""), std::string::npos);
  EXPECT_NE(json.find("\"total_measured_ops\": 768"), std::string::npos);
  EXPECT_NE(json.find("\"total_predicted_ops\": 512.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"total_residual\": 0.500000"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
  EXPECT_NE(json.find("\"d_min\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"residual\": 0.500000"), std::string::npos);
}

TEST(DegreeProfileRenderTest, TableMentionsBucketsAndTotal) {
  DegreeProfile profile;
  profile.method = Method::kL3;
  DegreeBucket b;
  b.bucket = 1;
  b.d_min = 1;
  b.d_max = 1;
  b.nodes = 2;
  b.measured_ops = 10;
  b.predicted_ops = 8.0;
  profile.buckets.push_back(b);
  profile.total_measured = 10;
  profile.total_predicted = 8.0;

  const std::string table = DegreeProfileTable(profile);
  EXPECT_NE(table.find("L3"), std::string::npos);
  EXPECT_NE(table.find("bucket"), std::string::npos);
  EXPECT_NE(table.find("residual"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

}  // namespace
}  // namespace trilist::obs
