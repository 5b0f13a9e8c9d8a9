#include "src/cost/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/algo/cost.h"
#include "src/core/h_function.h"
#include "src/core/out_degree_model.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/order/named_orders.h"
#include "src/order/registry.h"
#include "src/order/split.h"
#include "src/run/planner.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

std::vector<int64_t> SkewedDegrees(size_t n) {
  std::vector<int64_t> degrees;
  degrees.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    degrees.push_back(1 + static_cast<int64_t>(i * i) / 64);
  }
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

TEST(CostModelTest, OpsMatchSequenceConditionalCost) {
  const std::vector<int64_t> degrees = SkewedDegrees(128);
  const size_t n = degrees.size();
  const cost::CostModel model(degrees);
  for (const Method m : FundamentalMethods()) {
    for (const PermutationKind kind :
         {PermutationKind::kAscending, PermutationKind::kDescending,
          PermutationKind::kRoundRobin,
          PermutationKind::kComplementaryRoundRobin}) {
      Rng rng(0);
      const Permutation theta = MakePermutation(kind, n, &rng);
      EXPECT_DOUBLE_EQ(
          model.PredictedOps({kind, 0}, m),
          static_cast<double>(n) * SequenceConditionalCost(degrees, theta, m))
          << PermutationKindName(kind) << " " << MethodName(m);
    }
    // The split order prices through its tailored positional permutation.
    EXPECT_DOUBLE_EQ(model.PredictedOps({PermutationKind::kSplit, 0}, m),
                     static_cast<double>(n) *
                         SequenceConditionalCost(
                             degrees, TailoredSplitPermutation(degrees), m))
        << MethodName(m);
  }
}

/// One method priced alone, the way Proposition 4 reads: labels, q, then
/// g(d) h_m(q) summed in label order and divided by n.
double ReferenceCost(const std::vector<int64_t>& degrees,
                     const Permutation& theta, Method m) {
  const std::vector<int64_t> by_label = DegreesByLabel(degrees, theta);
  const std::vector<double> q = ExpectedSmallerNeighborFractions(by_label);
  double cost = 0.0;
  for (size_t i = 0; i < by_label.size(); ++i) {
    cost += GFunction(static_cast<double>(by_label[i])) * EvalH(m, q[i]);
  }
  return cost / static_cast<double>(by_label.size());
}

/// |got - want| <= 1e-12 |want|: the agreement of the closed-form run
/// pricing with a label-by-label loop (rounding only).
void ExpectRelativelyNear(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
      << what << ": got " << got << ", want " << want;
}

TEST(CostModelTest, OnePassPricesEveryMethodBitExactly) {
  const DiscretePareto base(1.5, 15.0);
  const TruncatedDistribution fn(base, 400);
  Rng rng(11);
  std::vector<int64_t> degrees(2000);
  for (auto& d : degrees) d = fn.Sample(&rng);
  std::sort(degrees.begin(), degrees.end());
  const auto n = static_cast<double>(degrees.size());

  std::vector<OrientSpec> specs;
  for (const PermutationKind kind : PlannerOrderCandidates()) {
    specs.push_back({kind, 0});
  }
  specs.push_back({PermutationKind::kUniform, 7});
  specs.push_back({PermutationKind::kDegenerate, 0});
  specs.push_back({PermutationKind::kAot, 0});

  const cost::CostModel model(degrees);
  for (const OrientSpec& spec : specs) {
    const OrderingProvider& provider =
        OrderingRegistry::Instance().Of(spec.kind);
    const Permutation theta = provider.PricingPermutation(degrees, spec.seed);
    for (const Method m : AllMethods()) {
      const double got = model.PredictedOps(spec, m);
      const double want = n * ReferenceCost(degrees, theta, m);
      if (provider.seeded()) {
        // EXPECT_EQ, not EXPECT_DOUBLE_EQ: theta_U's shared O(n) pass
        // must round exactly like the per-method loop.
        EXPECT_EQ(got, want) << spec.Key() << " " << MethodName(m);
      } else {
        // Every other ordering is priced by degree runs in closed form.
        ExpectRelativelyNear(got, want,
                             spec.Key() + " " + MethodName(m));
      }
    }
  }
}

/// Run pricing against the O(n) label loop on every ordering it serves
/// (theta_A/D/RR/CRR and every split grid point), for one sequence.
void ExpectRunPricingMatchesLabelLoop(const std::vector<int64_t>& degrees,
                                      const WeightFn& w,
                                      const std::string& name) {
  const size_t n = degrees.size();
  const std::vector<DegreeRun> ascending = CompressRuns(degrees);
  std::vector<std::pair<std::string, Permutation>> thetas;
  std::vector<std::vector<DegreeRun>> runs;
  for (const PermutationKind kind :
       {PermutationKind::kAscending, PermutationKind::kDescending,
        PermutationKind::kRoundRobin,
        PermutationKind::kComplementaryRoundRobin}) {
    thetas.emplace_back(PermutationKindName(kind),
                        MakePermutation(kind, n));
    runs.push_back(NamedOrderRuns(kind, ascending));
  }
  std::vector<size_t> grid{0};
  for (size_t s = 1; s < n; s *= 2) grid.push_back(s);
  grid.push_back(n);
  for (const size_t s : grid) {
    thetas.emplace_back("split(" + std::to_string(s) + ")",
                        SplitPermutation(n, s));
    runs.push_back(SplitRuns(ascending, s));
  }
  for (size_t i = 0; i < thetas.size(); ++i) {
    const std::string what = name + " " + thetas[i].first;
    // The runs are exactly the label-order degree sequence, compressed.
    EXPECT_EQ(runs[i], CompressRuns(DegreesByLabel(degrees, thetas[i].second)))
        << what;
    const MethodCosts want =
        SequenceConditionalCosts(degrees, thetas[i].second, w);
    const MethodCosts got = RunConditionalCosts(runs[i], w);
    for (const Method m : AllMethods()) {
      ExpectRelativelyNear(got[static_cast<size_t>(m)],
                           want[static_cast<size_t>(m)],
                           what + " " + MethodName(m));
    }
  }
}

TEST(RunPricingTest, MatchesTheLabelLoopOnEdgeCases) {
  const WeightFn id = WeightFn::Identity();
  ExpectRunPricingMatchesLabelLoop({}, id, "empty");
  ExpectRunPricingMatchesLabelLoop({0, 0, 0}, id, "all zero");
  ExpectRunPricingMatchesLabelLoop({3}, id, "n=1");
  // n = 2 and 3: the RR and CRR segments start on either parity.
  ExpectRunPricingMatchesLabelLoop({2, 5}, id, "n=2");
  ExpectRunPricingMatchesLabelLoop({4, 4}, id, "n=2 regular");
  ExpectRunPricingMatchesLabelLoop({1, 2, 7}, id, "n=3");
  ExpectRunPricingMatchesLabelLoop({2, 2, 3}, id, "n=3 tied");
  // Regular: one run under every ordering.
  ExpectRunPricingMatchesLabelLoop(std::vector<int64_t>(101, 6), id,
                                   "regular");
  std::vector<int64_t> skewed = SkewedDegrees(200);
  for (size_t i = 0; i < 17; ++i) skewed[i] = 0;  // zero-degree nodes
  std::sort(skewed.begin(), skewed.end());
  ExpectRunPricingMatchesLabelLoop(skewed, id, "skewed with zeros");
}

TEST(RunPricingTest, MatchesTheLabelLoopOnParetoSequences) {
  for (const double alpha : {1.3, 1.5, 2.5}) {
    const DiscretePareto base(alpha, 15.0);
    const TruncatedDistribution fn(base, 1000);
    Rng rng(23);
    std::vector<int64_t> degrees(2000);
    for (auto& d : degrees) d = fn.Sample(&rng);
    std::sort(degrees.begin(), degrees.end());
    ExpectRunPricingMatchesLabelLoop(degrees, WeightFn::Identity(),
                                     "pareto " + std::to_string(alpha));
  }
}

TEST(RunPricingTest, MatchesTheLabelLoopUnderACappedWeight) {
  const DiscretePareto base(1.5, 15.0);
  const TruncatedDistribution fn(base, 1000);
  Rng rng(29);
  std::vector<int64_t> degrees(2000);
  for (auto& d : degrees) d = fn.Sample(&rng);
  std::sort(degrees.begin(), degrees.end());
  ExpectRunPricingMatchesLabelLoop(degrees, WeightFn::Capped(37.5),
                                   "capped");
}

TEST(RunPricingTest, EqualLabelSequencesPriceBitIdentically) {
  // theta_A is split(0) and theta_D is split(n); on a regular sequence
  // every ordering lists the same labels. Ties must stay ties.
  const std::vector<int64_t> degrees = SkewedDegrees(300);
  const std::vector<DegreeRun> ascending = CompressRuns(degrees);
  EXPECT_EQ(RunConditionalCosts(SplitRuns(ascending, 0)),
            RunConditionalCosts(
                NamedOrderRuns(PermutationKind::kAscending, ascending)));
  EXPECT_EQ(RunConditionalCosts(SplitRuns(ascending, degrees.size())),
            RunConditionalCosts(
                NamedOrderRuns(PermutationKind::kDescending, ascending)));
  const std::vector<DegreeRun> regular =
      CompressRuns(std::vector<int64_t>(64, 5));
  const MethodCosts a =
      RunConditionalCosts(NamedOrderRuns(PermutationKind::kAscending, regular));
  for (const PermutationKind kind :
       {PermutationKind::kDescending, PermutationKind::kRoundRobin,
        PermutationKind::kComplementaryRoundRobin}) {
    EXPECT_EQ(RunConditionalCosts(NamedOrderRuns(kind, regular)), a)
        << PermutationKindName(kind);
  }
}

TEST(CostModelTest, GraphDependentOrdersPriceViaDescendingProxy) {
  const cost::CostModel model(SkewedDegrees(64));
  for (const Method m : FundamentalMethods()) {
    const double d = model.PredictedOps({PermutationKind::kDescending, 0}, m);
    EXPECT_DOUBLE_EQ(model.PredictedOps({PermutationKind::kDegenerate, 0}, m),
                     d);
    EXPECT_DOUBLE_EQ(model.PredictedOps({PermutationKind::kAot, 0}, m), d);
  }
}

TEST(CostModelTest, UniformPricingIsSeedDeterministic) {
  const std::vector<int64_t> degrees = SkewedDegrees(64);
  const cost::CostModel model(degrees);
  const OrientSpec u7{PermutationKind::kUniform, 7};
  const double first = model.PredictedOps(u7, Method::kE1);
  EXPECT_DOUBLE_EQ(model.PredictedOps(u7, Method::kE1), first);
  // The seed is part of the pricing identity.
  Rng rng(7);
  const Permutation theta = UniformPermutation(degrees.size(), &rng);
  EXPECT_DOUBLE_EQ(first,
                   static_cast<double>(degrees.size()) *
                       SequenceConditionalCost(degrees, theta, Method::kE1));
}

TEST(CostModelTest, FamilyWeightsAreTheMeasuredConstants) {
  const cost::CostModel model(SkewedDegrees(32));
  // The constants measured in cost_model.h, in E1/merge units.
  for (const Method m : AllMethods()) {
    const Family family = MethodFamily(m);
    const double want = family == Family::kVertexIterator       ? 3.5
                        : family == Family::kLookupEdgeIterator ? 0.74
                                                                : 1.0;
    EXPECT_DOUBLE_EQ(model.FamilyWeight(m), want) << MethodName(m);
  }
  EXPECT_DOUBLE_EQ(model.BackendSpeedup(IntersectBackend::kBitmap), 1.0);
  // Their order: a lookup is cheaper than an arc probe (else T1 wins
  // L2's tie), and no backend beats the merge: the bitmap backend is the
  // merge behind a hub shortcut, which wins only where hubs cover the
  // rows, so on the median a pinned E method plans the merge.
  EXPECT_LT(model.params().lookup_op_weight,
            model.params().vertex_op_weight);
  EXPECT_LE(model.BackendSpeedup(IntersectBackend::kBitmap), 1.0);
}

TEST(CostModelTest, BackendSpeedupDividesOnlyScanningIterators) {
  cost::CostModelParams params;
  params.bitmap_speedup = 2.0;
  const cost::CostModel model(SkewedDegrees(64), params);
  const OrientSpec spec{PermutationKind::kDescending, 0};

  EXPECT_DOUBLE_EQ(model.BackendSpeedup(IntersectBackend::kMerge), 1.0);
  EXPECT_DOUBLE_EQ(model.BackendSpeedup(IntersectBackend::kBitmap), 2.0);

  const double sei_merge =
      model.PredictedCost(spec, Method::kE1, IntersectBackend::kMerge);
  EXPECT_DOUBLE_EQ(
      model.PredictedCost(spec, Method::kE1, IntersectBackend::kBitmap),
      sei_merge / 2.0);

  // Vertex and lookup iterators never touch the intersection loop.
  for (const Method m : {Method::kT1, Method::kL1}) {
    EXPECT_DOUBLE_EQ(
        model.PredictedCost(spec, m, IntersectBackend::kBitmap),
        model.PredictedCost(spec, m, IntersectBackend::kMerge))
        << MethodName(m);
  }
}

TEST(CostModelTest, TotalCostIsTheSumOverMethods) {
  const cost::CostModel model(SkewedDegrees(64));
  const OrientSpec spec{PermutationKind::kRoundRobin, 0};
  const std::vector<Method> methods = {Method::kT1, Method::kE1, Method::kE4};
  double sum = 0;
  for (const Method m : methods) {
    sum += model.PredictedCost(spec, m, IntersectBackend::kMerge);
  }
  EXPECT_DOUBLE_EQ(
      model.PredictedTotalCost(spec, methods, IntersectBackend::kMerge), sum);
}

TEST(CostModelTest, WeightedCostMatchesPredictionCurrency) {
  // A measured op count weighted through WeightedCost must land in the
  // same currency as PredictedCost: ops * family weight / SEI speedup.
  cost::CostModelParams params;
  params.bitmap_speedup = 8.0;
  const cost::CostModel model(SkewedDegrees(32), params);
  EXPECT_DOUBLE_EQ(model.WeightedCost(100.0, Method::kT1,
                                      IntersectBackend::kBitmap),
                   100.0 * params.vertex_op_weight);
  EXPECT_DOUBLE_EQ(model.WeightedCost(100.0, Method::kE1,
                                      IntersectBackend::kBitmap),
                   100.0 / 8.0);
  EXPECT_DOUBLE_EQ(model.WeightedCost(100.0, Method::kL1,
                                      IntersectBackend::kBitmap),
                   100.0 * params.lookup_op_weight);
}

}  // namespace
}  // namespace trilist
