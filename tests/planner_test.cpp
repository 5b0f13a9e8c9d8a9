#include "src/run/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/algo/cost.h"
#include "src/run/run_spec.h"
#include "src/run/runner.h"

namespace trilist {
namespace {

std::vector<int64_t> ParetoLikeDegrees(size_t n) {
  std::vector<int64_t> degrees;
  degrees.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Roughly d ~ (n/(n-i))^(1/alpha): a heavy upper tail.
    const double u = static_cast<double>(n - i) / static_cast<double>(n);
    degrees.push_back(1 + static_cast<int64_t>(3.0 / std::pow(u, 0.6)));
  }
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

bool HasSei(const std::vector<Method>& methods) {
  return std::any_of(methods.begin(), methods.end(), [](Method m) {
    return MethodFamily(m) == Family::kScanningEdgeIterator;
  });
}

TEST(PlannerTest, CandidateAxesAreAsDocumented) {
  const std::vector<Method> methods{Method::kT1, Method::kT2, Method::kE1,
                                    Method::kE4, Method::kL1, Method::kL2};
  EXPECT_EQ(PlannerMethodCandidates(), methods);
  // `--methods fundamental` keeps its meaning.
  EXPECT_EQ(FundamentalMethods().size(), 4u);
  const auto& orders = PlannerOrderCandidates();
  EXPECT_EQ(orders.size(), 5u);
  EXPECT_EQ(std::count(orders.begin(), orders.end(),
                       PermutationKind::kUniform),
            0);
  EXPECT_EQ(std::count(orders.begin(), orders.end(),
                       PermutationKind::kDegenerate),
            0);
  EXPECT_EQ(std::count(orders.begin(), orders.end(), PermutationKind::kSplit),
            1);
  const auto& backends = PlannerBackendCandidates();
  EXPECT_EQ(backends,
            (std::vector<IntersectBackend>{IntersectBackend::kMerge,
                                           IntersectBackend::kBitmap}));
}

TEST(PlannerTest, FullAutoMatchesManualEnumeration) {
  const cost::CostModel model(ParetoLikeDegrees(256));
  PlannerRequest req;
  req.auto_method = true;
  req.auto_order = true;
  req.auto_intersect = true;
  const PlanResult plan = ResolvePlan(model, req);

  double manual_best = std::numeric_limits<double>::infinity();
  size_t manual_count = 0;
  for (const Method m : PlannerMethodCandidates()) {
    for (const PermutationKind kind : PlannerOrderCandidates()) {
      const std::vector<IntersectBackend> backends =
          HasSei({m}) ? PlannerBackendCandidates()
                      : std::vector<IntersectBackend>{IntersectBackend::kMerge};
      for (const IntersectBackend b : backends) {
        ++manual_count;
        manual_best = std::min(
            manual_best, model.PredictedTotalCost({kind, 0}, {m}, b));
      }
    }
  }
  EXPECT_EQ(plan.candidates.size(), manual_count);
  // T1, T2, L1, L2 x 5 orders + E1, E4 x 5 orders x 2 backends.
  EXPECT_EQ(manual_count, 40u);
  EXPECT_DOUBLE_EQ(plan.chosen.predicted_cost, manual_best);

  // The ranking is sorted ascending and the argmin leads it.
  ASSERT_FALSE(plan.candidates.empty());
  EXPECT_DOUBLE_EQ(plan.candidates.front().predicted_cost,
                   plan.chosen.predicted_cost);
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_LE(plan.candidates[i - 1].predicted_cost,
              plan.candidates[i].predicted_cost);
  }
}

// L2 and T1 (L1 and T2) predict identical ops under every order, and the
// vertex twin is enumerated first: the lookup wins only if its weight is
// strictly lower. Losing that tie would plan T1 and its arc index.
TEST(PlannerTest, LookupBeatsItsVertexTwin) {
  const cost::CostModel model(ParetoLikeDegrees(256));
  for (const PermutationKind kind : PlannerOrderCandidates()) {
    const OrientSpec spec{kind, 0};
    for (const auto& [lookup, vertex] :
         {std::pair{Method::kL2, Method::kT1},
          std::pair{Method::kL1, Method::kT2}}) {
      EXPECT_DOUBLE_EQ(model.PredictedOps(spec, lookup),
                       model.PredictedOps(spec, vertex))
          << spec.Key() << " " << MethodName(lookup);
      EXPECT_LT(
          model.PredictedCost(spec, lookup, IntersectBackend::kMerge),
          model.PredictedCost(spec, vertex, IntersectBackend::kMerge))
          << spec.Key() << " " << MethodName(lookup);
    }
  }
}

TEST(PlannerTest, FullAutoPicksALookupOnParetoDegrees) {
  const cost::CostModel model(ParetoLikeDegrees(256));
  PlannerRequest req;
  req.auto_method = true;
  req.auto_order = true;
  req.auto_intersect = true;
  const PlanResult plan = ResolvePlan(model, req);
  ASSERT_EQ(plan.chosen.methods.size(), 1u);
  EXPECT_EQ(MethodFamily(plan.chosen.methods[0]),
            Family::kLookupEdgeIterator)
      << MethodName(plan.chosen.methods[0]);
  // No intersection loop, so the backend axis collapsed to the merge.
  EXPECT_EQ(plan.chosen.intersect, IntersectBackend::kMerge);
}

TEST(PlannerTest, PinnedAxesAreNeverOverridden) {
  const cost::CostModel model(ParetoLikeDegrees(128));
  PlannerRequest req;
  req.auto_order = true;
  req.methods = {Method::kT1};
  req.intersect = IntersectBackend::kBitmap;
  const PlanResult plan = ResolvePlan(model, req);

  ASSERT_EQ(plan.chosen.methods.size(), 1u);
  EXPECT_EQ(plan.chosen.methods[0], Method::kT1);
  EXPECT_EQ(plan.chosen.intersect, IntersectBackend::kBitmap);
  // Only the order axis was free: one candidate per order kind.
  EXPECT_EQ(plan.candidates.size(), PlannerOrderCandidates().size());
  // And the chosen order is the T1 argmin over that axis.
  double best = std::numeric_limits<double>::infinity();
  for (const PermutationKind kind : PlannerOrderCandidates()) {
    best = std::min(best,
                    model.PredictedTotalCost({kind, 0}, {Method::kT1},
                                             IntersectBackend::kBitmap));
  }
  EXPECT_DOUBLE_EQ(plan.chosen.predicted_cost, best);
}

TEST(PlannerTest, BackendAxisCollapsesWithoutScanningMethods) {
  const cost::CostModel model(ParetoLikeDegrees(128));
  PlannerRequest req;
  req.auto_intersect = true;
  req.methods = {Method::kT1};  // vertex iterator: no intersection loop
  const PlanResult plan = ResolvePlan(model, req);
  EXPECT_EQ(plan.candidates.size(), 1u);
  EXPECT_EQ(plan.chosen.intersect, IntersectBackend::kMerge);

  req.methods = {Method::kE1};  // SEI: the backend axis is real
  const PlanResult sei_plan = ResolvePlan(model, req);
  EXPECT_EQ(sei_plan.candidates.size(), PlannerBackendCandidates().size());
  // The chosen backend is at least as cheap as scalar merge.
  EXPECT_LE(sei_plan.chosen.predicted_cost,
            model.PredictedTotalCost(req.orient, {Method::kE1},
                                     IntersectBackend::kMerge));
}

TEST(PlannerTest, ChosenPlanIsExecutableAndPredictionsAreFinite) {
  const cost::CostModel model(ParetoLikeDegrees(64));
  PlannerRequest req;
  req.auto_method = true;
  req.auto_order = true;
  const PlanResult plan = ResolvePlan(model, req);
  EXPECT_FALSE(plan.chosen.methods.empty());
  EXPECT_GT(plan.chosen.predicted_ops, 0);
  EXPECT_GT(plan.chosen.predicted_cost, 0);
  EXPECT_TRUE(std::isfinite(plan.chosen.predicted_cost));
}

GenerateSpec SmallPareto() {
  GenerateSpec gen;
  gen.n = 3000;
  gen.alpha = 1.7;
  return gen;
}

TEST(PlannerPipelineTest, AutoEverythingPopulatesThePlanReport) {
  RunSpec spec;
  spec.source = GraphSource::FromGenerator(SmallPareto());
  spec.plan.method = true;
  spec.plan.order = true;
  spec.plan.intersect = true;
  auto report = RunPipeline(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(report->plan.planned);
  EXPECT_TRUE(report->plan.auto_method);
  EXPECT_TRUE(report->plan.auto_order);
  EXPECT_TRUE(report->plan.auto_intersect);
  ASSERT_FALSE(report->plan.methods.empty());
  EXPECT_FALSE(report->plan.order.empty());
  EXPECT_FALSE(report->plan.intersect.empty());
  EXPECT_GT(report->plan.candidates, 1);
  EXPECT_GT(report->plan.predicted_cost, 0);
  // The run executed exactly the planned configuration.
  ASSERT_EQ(report->methods.size(), report->plan.methods.size());
  EXPECT_EQ(MethodName(report->methods[0].method), report->plan.methods[0]);
  EXPECT_EQ(report->order, report->plan.order);
  // The listing ran, so the audit has a measured side.
  EXPECT_GT(report->plan.measured_ops, 0);
  EXPECT_GT(report->plan.measured_cost, 0);
  // And the planner stage was timed.
  EXPECT_GE(report->stages.WallOf("plan"), 0.0);

  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"planned\": true"), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":"), std::string::npos);
}

TEST(PlannerPipelineTest, PinnedRunsReportAnUnplannedSection) {
  RunSpec spec;
  spec.source = GraphSource::FromGenerator(SmallPareto());
  spec.methods = {Method::kE1};
  auto report = RunPipeline(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->plan.planned);
  EXPECT_EQ(report->plan.candidates, 0);
  EXPECT_NE(report->ToJson().find("\"planned\": false"), std::string::npos);
}

TEST(PlannerPipelineTest, PlannedOrderKeyMatchesTheChosenSpec) {
  RunSpec spec;
  spec.source = GraphSource::FromGenerator(SmallPareto());
  spec.plan.order = true;
  spec.methods = {Method::kE4};
  auto report = RunPipeline(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->plan.planned);
  EXPECT_FALSE(report->plan.auto_method);
  // Pinned method survives planning.
  ASSERT_EQ(report->methods.size(), 1u);
  EXPECT_EQ(report->methods[0].method, Method::kE4);
  // The report's top-level order is the planned one.
  EXPECT_EQ(report->order, report->plan.order);
}

}  // namespace
}  // namespace trilist
