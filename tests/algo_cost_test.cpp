#include "src/algo/cost.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/algo/registry.h"
#include "src/algo/triangle_sink.h"
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
// Metadata tables.
// ---------------------------------------------------------------------------

TEST(MethodMetadataTest, FamiliesAndNames) {
  EXPECT_EQ(MethodFamily(Method::kT3), Family::kVertexIterator);
  EXPECT_EQ(MethodFamily(Method::kE5), Family::kScanningEdgeIterator);
  EXPECT_EQ(MethodFamily(Method::kL2), Family::kLookupEdgeIterator);
  EXPECT_STREQ(MethodName(Method::kE4), "E4");
  EXPECT_EQ(AllMethods().size(), 18u);
  EXPECT_EQ(FundamentalMethods().size(), 4u);
}

TEST(MethodMetadataTest, Table1LocalRemoteClasses) {
  // Table 1 of the paper, verbatim.
  using C = CostClass;
  const std::pair<Method, std::pair<C, C>> kTable1[] = {
      {Method::kE1, {C::kT1, C::kT2}}, {Method::kE2, {C::kT2, C::kT1}},
      {Method::kE3, {C::kT3, C::kT2}}, {Method::kE4, {C::kT1, C::kT3}},
      {Method::kE5, {C::kT2, C::kT3}}, {Method::kE6, {C::kT3, C::kT1}},
  };
  for (const auto& [m, classes] : kTable1) {
    EXPECT_EQ(LocalCostClass(m), classes.first) << MethodName(m);
    EXPECT_EQ(RemoteCostClass(m), classes.second) << MethodName(m);
  }
}

TEST(MethodMetadataTest, Table2LookupClasses) {
  using C = CostClass;
  const std::pair<Method, C> kTable2[] = {
      {Method::kL1, C::kT2}, {Method::kL2, C::kT1}, {Method::kL3, C::kT2},
      {Method::kL4, C::kT3}, {Method::kL5, C::kT3}, {Method::kL6, C::kT1},
  };
  for (const auto& [m, c] : kTable2) {
    EXPECT_EQ(LocalCostClass(m), c) << MethodName(m);
  }
}

TEST(MethodMetadataTest, BinarySearchMethods) {
  EXPECT_TRUE(NeedsRemoteBinarySearch(Method::kE5));
  EXPECT_TRUE(NeedsRemoteBinarySearch(Method::kE6));
  EXPECT_TRUE(NeedsRemoteBinarySearch(Method::kL5));
  EXPECT_TRUE(NeedsRemoteBinarySearch(Method::kL6));
  EXPECT_FALSE(NeedsRemoteBinarySearch(Method::kE1));
  EXPECT_FALSE(NeedsRemoteBinarySearch(Method::kT1));
}

// ---------------------------------------------------------------------------
// Operational counts match the analytic formulas exactly.
// ---------------------------------------------------------------------------

using CostParam = std::tuple<Method, PermutationKind>;

class OperationalCostTest : public ::testing::TestWithParam<CostParam> {};

TEST_P(OperationalCostTest, RunCountsEqualDegreeFormulas) {
  const auto [method, order] = GetParam();
  const Graph g = HeavyTailedGraph(400, 5);
  Rng rng(6);
  const OrientedGraph og = OrientNamed(g, order, &rng);
  CountingSink sink;
  const OpCounts ops = RunMethod(method, og, &sink);

  const auto x = og.OutDegrees();
  const auto y = og.InDegrees();
  const double local = CostClassTotal(x, y, LocalCostClass(method));
  switch (MethodFamily(method)) {
    case Family::kVertexIterator:
      EXPECT_DOUBLE_EQ(static_cast<double>(ops.candidate_checks), local);
      EXPECT_EQ(ops.local_scans, 0);
      EXPECT_EQ(ops.lookups, 0);
      break;
    case Family::kScanningEdgeIterator: {
      const double remote = CostClassTotal(x, y, RemoteCostClass(method));
      EXPECT_DOUBLE_EQ(static_cast<double>(ops.local_scans), local);
      EXPECT_DOUBLE_EQ(static_cast<double>(ops.remote_scans), remote);
      // The actual merge can only be cheaper than the paper metric.
      EXPECT_LE(ops.merge_comparisons, ops.local_scans + ops.remote_scans);
      break;
    }
    case Family::kLookupEdgeIterator:
      EXPECT_DOUBLE_EQ(static_cast<double>(ops.lookups), local);
      // Build cost: every arc is inserted exactly once per run.
      EXPECT_EQ(ops.hash_inserts, static_cast<int64_t>(og.num_arcs()));
      break;
  }
  // PaperCost agrees with MethodCostTotal.
  EXPECT_DOUBLE_EQ(static_cast<double>(ops.PaperCost()),
                   MethodCostTotal(og, method));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsTimesOrders, OperationalCostTest,
    ::testing::Combine(::testing::ValuesIn(AllMethods()),
                       ::testing::Values(PermutationKind::kAscending,
                                         PermutationKind::kDescending,
                                         PermutationKind::kRoundRobin,
                                         PermutationKind::kUniform)),
    [](const ::testing::TestParamInfo<CostParam>& info) {
      return std::string(MethodName(std::get<0>(info.param))) + "_" +
             PermutationKindName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Structural identities: Propositions 1-2 and equivalence classes.
// ---------------------------------------------------------------------------

TEST(CostIdentityTest, Proposition2_E1EqualsT1PlusT2) {
  const Graph g = HeavyTailedGraph(500, 7);
  for (PermutationKind order :
       {PermutationKind::kAscending, PermutationKind::kDescending,
        PermutationKind::kRoundRobin}) {
    const OrientedGraph og = OrientNamed(g, order);
    EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kE1),
                     MethodCostTotal(og, Method::kT1) +
                         MethodCostTotal(og, Method::kT2))
        << PermutationKindName(order);
  }
}

TEST(CostIdentityTest, Proposition1_ReversalSwapsXandY) {
  // c(T1, theta) == c(T3, theta') and c(T2, theta) == c(T2, theta').
  const Graph g = HeavyTailedGraph(500, 8);
  const size_t n = g.num_nodes();
  Rng rng(9);
  const Permutation theta = UniformPermutation(n, &rng);
  const OrientedGraph og = Orient(g, theta);
  const OrientedGraph og_rev = Orient(g, theta.Reverse());
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT1),
                   MethodCostTotal(og_rev, Method::kT3));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT3),
                   MethodCostTotal(og_rev, Method::kT1));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT2),
                   MethodCostTotal(og_rev, Method::kT2));
  // SEI classes map likewise: E1 <-> E3, E4 is self-paired.
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kE1),
                   MethodCostTotal(og_rev, Method::kE3));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kE4),
                   MethodCostTotal(og_rev, Method::kE4));
}

TEST(CostIdentityTest, EquivalenceClassesWithinFamilies) {
  const Graph g = HeavyTailedGraph(300, 10);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  // Figure 2: T4 ~ T1, T5 ~ T2, T6 ~ T3.
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT1),
                   MethodCostTotal(og, Method::kT4));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT2),
                   MethodCostTotal(og, Method::kT5));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT3),
                   MethodCostTotal(og, Method::kT6));
  // Figure 4: E2 ~ E1 (local/remote swap), E5 ~ E3, E6 ~ E4.
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kE1),
                   MethodCostTotal(og, Method::kE2));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kE3),
                   MethodCostTotal(og, Method::kE5));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kE4),
                   MethodCostTotal(og, Method::kE6));
}

TEST(CostIdentityTest, LookupCostsMatchSecondRowOfTable1) {
  const Graph g = HeavyTailedGraph(300, 11);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kL1),
                   MethodCostTotal(og, Method::kT2));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kL2),
                   MethodCostTotal(og, Method::kT1));
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kL4),
                   MethodCostTotal(og, Method::kT3));
}

TEST(CostIdentityTest, KnownValuesOnCompleteGraph) {
  // K_n under any order: X_i = i, Y_i = n-1-i for label i.
  const size_t n = 10;
  const Graph g = MakeComplete(n);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);
  // T1 candidates: sum_i C(i, 2) = C(n, 3).
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT1), 120.0);
  // T2: sum_i i * (n - 1 - i) = 120 for n = 10 (each triangle's middle).
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT2), 120.0);
  // On the complete graph every candidate is a triangle.
  CountingSink sink;
  const OpCounts ops = RunMethod(Method::kT1, og, &sink);
  EXPECT_EQ(ops.triangles, 120);
  EXPECT_EQ(ops.candidate_checks, 120);
}

TEST(CostIdentityTest, PerNodeCostDividesByN) {
  const Graph g = MakeComplete(10);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);
  EXPECT_DOUBLE_EQ(MethodCostTotal(og, Method::kT1) /
                       static_cast<double>(og.num_nodes()),
                   12.0);
}

TEST(CostIdentityTest, EmptyGraphCostsZero) {
  const Graph g = MakeEmpty(5);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);
  for (Method m : AllMethods()) {
    EXPECT_EQ(MethodCostTotal(og, m), 0.0) << MethodName(m);
  }
  const OrientedGraph og0 =
      OrientNamed(MakeEmpty(0), PermutationKind::kAscending);
  EXPECT_EQ(og0.num_nodes(), 0u);
  EXPECT_EQ(MethodCostTotal(og0, Method::kT1), 0.0);
}

TEST(CostIdentityTest, BinarySearchCountsForE5E6) {
  const Graph g = HeavyTailedGraph(300, 12);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CountingSink sink;
  const OpCounts e5 = RunMethod(Method::kE5, og, &sink);
  const OpCounts e6 = RunMethod(Method::kE6, og, &sink);
  const OpCounts e1 = RunMethod(Method::kE1, og, &sink);
  // One positioning search per arc for E5/E6; none for E1.
  EXPECT_EQ(e5.binary_searches, static_cast<int64_t>(og.num_arcs()));
  EXPECT_EQ(e6.binary_searches, static_cast<int64_t>(og.num_arcs()));
  EXPECT_EQ(e1.binary_searches, 0);
}

}  // namespace
}  // namespace trilist
