/// \file bench_ordering_planner.cpp
/// The ordering shootout + planner audit behind DESIGN.md §14: on two
/// truncated-Pareto families (alpha = 1.3 heavy tail, alpha = 2.5 light
/// tail) and one structurally different real-graph stand-in (preferential
/// attachment, degree-degree correlated), run every registered ordering
/// against every method the planner races (PlannerMethodCandidates(): T1,
/// T2, E1, E4, L1, L2; the scanning pair on each intersection backend)
/// and record
///
///   - wall time of the listing under that ordering (min of reps),
///   - the Section-3 predicted ops/cost (theta_D proxy for degen/AOT),
///   - the measured ops weighted into the same cost currency.
///
/// Then let the planner resolve `--method auto --order auto --intersect
/// auto` from the degree sequence alone and score it against the best
/// candidate in hindsight (the oracle) over the planner's own candidate
/// space, two ways:
///
///   - weighted regret: the measured weighted cost of the plan divided by
///     the oracle's (merge currency for both) - 1. The bench fails if it
///     exceeds 10% on any graph — the gate that keeps the cost model's
///     op counts honest enough to schedule with;
///   - wall regret: the plan's min listing wall (on its chosen backend)
///     divided by the fastest candidate's - 1. Reported, not gated: it
///     measures the per-op weights, and walls on a shared host swing.
///
/// It also times planning itself: the wall of that full-auto ResolvePlan
/// on a cold CostModel (nothing memoized, so every candidate ordering's
/// pricing pass runs), as min-of-N plus the spread (max - min).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/algo/cost.h"
#include "src/algo/registry.h"
#include "src/algo/triangle_sink.h"
#include "src/cost/cost_model.h"
#include "src/degree/degree_stats.h"
#include "src/gen/preferential_attachment.h"
#include "src/order/registry.h"
#include "src/run/planner.h"
#include "src/util/json_writer.h"
#include "src/util/table_printer.h"

namespace {

using namespace trilist;

struct Sample {
  std::string order;   ///< ordering key (OrientSpec::Key()).
  std::string method;
  std::string intersect;  ///< backend name; "merge" outside E1/E4.
  double wall_s = 0;
  double predicted_ops = 0;
  double predicted_cost = 0;   ///< merge-backend currency.
  double measured_ops = 0;
  double measured_cost = 0;    ///< merge-backend currency.
  uint64_t triangles = 0;
};

struct GraphResult {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  std::vector<Sample> samples;
  // Planner audit.
  std::string plan_order;
  std::string plan_method;
  std::string plan_intersect;
  double plan_predicted_cost = 0;
  double plan_measured_cost = 0;
  double oracle_measured_cost = 0;
  std::string oracle_order;
  std::string oracle_method;
  double regret = 0;  ///< plan_measured / oracle_measured - 1.
  double plan_list_wall_s = 0;    ///< min listing wall of the plan.
  double oracle_list_wall_s = 0;  ///< fastest candidate's min wall.
  std::string oracle_wall_order;
  std::string oracle_wall_method;
  std::string oracle_wall_intersect;
  double wall_regret = 0;  ///< plan_list_wall / oracle_list_wall - 1.
  double plan_wall_s = 0;         ///< min cold ResolvePlan wall.
  double plan_wall_spread_s = 0;  ///< max - min of those walls.
};

/// Cold ResolvePlan repetitions per graph.
constexpr int kPlanReps = 7;

/// The shootout row of (order, method, backend).
const Sample& SampleOf(const std::vector<Sample>& samples,
                       const std::string& order, const std::string& method,
                       const std::string& intersect) {
  for (const Sample& s : samples) {
    if (s.order == order && s.method == method && s.intersect == intersect) {
      return s;
    }
  }
  std::fprintf(stderr, "no sample for %s/%s/%s\n", order.c_str(),
               method.c_str(), intersect.c_str());
  std::exit(1);
}

GraphResult RunShootout(const std::string& name, const Graph& graph,
                        int reps) {
  GraphResult result;
  result.name = name;
  result.nodes = graph.num_nodes();
  result.edges = graph.num_edges();

  const cost::CostModel model(AscendingDegrees(graph));
  std::printf("=== %s (n=%zu, m=%zu) ===\n", name.c_str(), result.nodes,
              result.edges);
  TablePrinter table(
      {"order", "method", "intersect", "wall_ms", "pred_ops", "meas_ops",
       "pred_cost", "meas_cost"});

  for (const OrderingProvider* provider : OrderingRegistry::Instance().all()) {
    const OrientSpec spec{provider->kind(), /*seed=*/1};
    const OrientedGraph og = OrientWithSpec(graph, spec);
    for (const Method m : PlannerMethodCandidates()) {
      const std::vector<IntersectBackend> backends =
          MethodFamily(m) == Family::kScanningEdgeIterator
              ? PlannerBackendCandidates()
              : std::vector<IntersectBackend>{IntersectBackend::kMerge};
      for (const IntersectBackend backend : backends) {
        ExecPolicy exec;
        exec.intersect = backend;
        OpCounts ops;
        const double wall = trilist_bench::BestWall(reps, [&] {
          CountingSink sink;
          ops = RunMethod(m, og, &sink, exec);
        });
        Sample s;
        s.order = spec.Key();
        s.method = MethodName(m);
        s.intersect = IntersectBackendName(backend);
        s.wall_s = wall;
        s.predicted_ops = model.PredictedOps(spec, m);
        s.predicted_cost =
            model.PredictedCost(spec, m, IntersectBackend::kMerge);
        s.measured_ops = static_cast<double>(ops.PaperCost());
        s.measured_cost =
            model.WeightedCost(s.measured_ops, m, IntersectBackend::kMerge);
        s.triangles = static_cast<uint64_t>(ops.triangles);
        char wall_ms[32], pred[32], meas[32], predc[32], measc[32];
        std::snprintf(wall_ms, sizeof(wall_ms), "%.2f", wall * 1e3);
        std::snprintf(pred, sizeof(pred), "%.3g", s.predicted_ops);
        std::snprintf(meas, sizeof(meas), "%.3g", s.measured_ops);
        std::snprintf(predc, sizeof(predc), "%.3g", s.predicted_cost);
        std::snprintf(measc, sizeof(measc), "%.3g", s.measured_cost);
        table.AddRow({s.order, s.method, s.intersect, wall_ms, pred, meas,
                      predc, measc});
        result.samples.push_back(std::move(s));
      }
    }
  }
  table.Print(std::cout);

  // The planner's pick, from the degree sequence alone.
  PlannerRequest req;
  req.auto_method = true;
  req.auto_order = true;
  req.auto_intersect = true;
  const PlanResult plan = ResolvePlan(model, req);
  double plan_wall_max = 0;
  for (int r = 0; r < kPlanReps; ++r) {
    const cost::CostModel cold(model.ascending_degrees());
    Timer timer;
    ResolvePlan(cold, req);
    const double wall = timer.ElapsedSeconds();
    if (r == 0 || wall < result.plan_wall_s) result.plan_wall_s = wall;
    plan_wall_max = std::max(plan_wall_max, wall);
  }
  result.plan_wall_spread_s = plan_wall_max - result.plan_wall_s;
  result.plan_order = plan.chosen.orient.Key();
  result.plan_method = MethodName(plan.chosen.methods[0]);
  result.plan_intersect = IntersectBackendName(plan.chosen.intersect);
  result.plan_predicted_cost = plan.chosen.predicted_cost;
  result.plan_measured_cost =
      SampleOf(result.samples, result.plan_order, result.plan_method, "merge")
          .measured_cost;
  result.plan_list_wall_s =
      SampleOf(result.samples, result.plan_order, result.plan_method,
               result.plan_intersect)
          .wall_s;

  // Hindsight oracles over the planner's own candidate space, scored on
  // the measured side of the table: the weighted one in merge currency
  // (so the comparison is constant-speedup-free), the wall one over
  // every backend.
  result.oracle_measured_cost = std::numeric_limits<double>::infinity();
  result.oracle_list_wall_s = std::numeric_limits<double>::infinity();
  for (const PermutationKind kind : PlannerOrderCandidates()) {
    const std::string order = OrientSpec{kind, 1}.Key();
    for (const Sample& s : result.samples) {
      if (s.order != order) continue;
      if (s.intersect == "merge" &&
          s.measured_cost < result.oracle_measured_cost) {
        result.oracle_measured_cost = s.measured_cost;
        result.oracle_order = s.order;
        result.oracle_method = s.method;
      }
      if (s.wall_s < result.oracle_list_wall_s) {
        result.oracle_list_wall_s = s.wall_s;
        result.oracle_wall_order = s.order;
        result.oracle_wall_method = s.method;
        result.oracle_wall_intersect = s.intersect;
      }
    }
  }
  result.regret =
      result.plan_measured_cost / result.oracle_measured_cost - 1.0;
  result.wall_regret =
      result.plan_list_wall_s / result.oracle_list_wall_s - 1.0;
  std::printf(
      "planner: %s via %s / %s (predicted %.3g, wall %.2f ms) | oracle: "
      "%s via %s (measured %.3g) | regret %.2f%% | wall oracle: %s via "
      "%s / %s (%.2f ms) | wall regret %.2f%% | cold plan %.2f ms "
      "(+%.2f ms spread over %d)\n\n",
      result.plan_method.c_str(), result.plan_order.c_str(),
      result.plan_intersect.c_str(), result.plan_predicted_cost,
      result.plan_list_wall_s * 1e3, result.oracle_method.c_str(),
      result.oracle_order.c_str(), result.oracle_measured_cost,
      result.regret * 100.0, result.oracle_wall_method.c_str(),
      result.oracle_wall_order.c_str(),
      result.oracle_wall_intersect.c_str(),
      result.oracle_list_wall_s * 1e3, result.wall_regret * 100.0,
      result.plan_wall_s * 1e3, result.plan_wall_spread_s * 1e3, kPlanReps);
  return result;
}

}  // namespace

int main() {
  const size_t n = trilist_bench::ScaledN(1000000, 30000);
  const int reps = 5;  // min-of-5 walls at every scale
  Rng rng(trilist_bench::Seed());

  std::vector<GraphResult> results;
  for (const double alpha : {1.3, 2.5}) {
    const Graph graph = trilist_bench::MakeBenchGraph(
        trilist_bench::ParetoSpec(n, alpha, TruncationKind::kRoot), &rng);
    char name[48];
    std::snprintf(name, sizeof(name), "pareto_alpha_%.1f", alpha);
    results.push_back(RunShootout(name, graph, reps));
  }
  {
    // Degree-correlated stand-in for a real scale-free graph.
    auto pa = GeneratePreferentialAttachment(n, /*m=*/4, &rng);
    if (!pa.ok()) {
      std::fprintf(stderr, "preferential attachment failed: %s\n",
                   pa.status().ToString().c_str());
      return 1;
    }
    results.push_back(RunShootout("preferential_attachment_m4",
                                  *std::move(pa), reps));
  }

  int failures = 0;
  for (const GraphResult& r : results) {
    const bool ok = r.regret <= 0.10;
    std::printf(
        "  [%s] %s: planner regret %.2f%% <= 10%% (wall regret %.2f%%)\n",
        ok ? "ok" : "FAIL", r.name.c_str(), r.regret * 100.0,
        r.wall_regret * 100.0);
    if (!ok) ++failures;
  }

  JsonWriter w;
  w.BeginObject();
  w.Field("bench", "ordering_planner");
  w.Field("seed", static_cast<int64_t>(trilist_bench::Seed()));
  w.Field("paper_scale", trilist_bench::PaperScale());
  w.Field("n", static_cast<int64_t>(n));
  w.Field("reps", reps);
  w.Key("graphs");
  w.BeginArray();
  for (const GraphResult& r : results) {
    w.BeginObject();
    w.Field("name", r.name);
    w.Field("nodes", static_cast<int64_t>(r.nodes));
    w.Field("edges", static_cast<int64_t>(r.edges));
    w.Key("samples");
    w.BeginArray();
    for (const Sample& s : r.samples) {
      w.BeginObject();
      w.Field("order", s.order);
      w.Field("method", s.method);
      w.Field("intersect", s.intersect);
      w.FieldDouble("wall_s", s.wall_s);
      w.FieldDouble("predicted_ops", s.predicted_ops, 1);
      w.FieldDouble("predicted_cost", s.predicted_cost, 1);
      w.FieldDouble("measured_ops", s.measured_ops, 1);
      w.FieldDouble("measured_cost", s.measured_cost, 1);
      w.Field("triangles", static_cast<int64_t>(s.triangles));
      w.EndObject();
    }
    w.EndArray();
    w.Key("planner");
    w.BeginObject();
    w.Field("order", r.plan_order);
    w.Field("method", r.plan_method);
    w.Field("intersect", r.plan_intersect);
    w.FieldDouble("predicted_cost", r.plan_predicted_cost, 1);
    w.FieldDouble("measured_cost", r.plan_measured_cost, 1);
    w.Field("oracle_order", r.oracle_order);
    w.Field("oracle_method", r.oracle_method);
    w.FieldDouble("oracle_measured_cost", r.oracle_measured_cost, 1);
    w.FieldDouble("regret", r.regret, 4);
    w.FieldDouble("list_wall_s", r.plan_list_wall_s);
    w.Field("oracle_wall_order", r.oracle_wall_order);
    w.Field("oracle_wall_method", r.oracle_wall_method);
    w.Field("oracle_wall_intersect", r.oracle_wall_intersect);
    w.FieldDouble("oracle_list_wall_s", r.oracle_list_wall_s);
    w.FieldDouble("wall_regret", r.wall_regret, 4);
    w.FieldDouble("plan_wall_s", r.plan_wall_s);
    w.FieldDouble("plan_wall_spread_s", r.plan_wall_spread_s);
    w.Field("plan_reps", kPlanReps);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.FieldDouble("regret_gate", 0.10, 2);
  w.Field("failures", failures);
  w.EndObject();

  const std::string path =
      trilist_bench::JsonPath("BENCH_ordering_planner.json");
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  const std::string json = std::move(w).Finish();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return failures == 0 ? 0 : 1;
}
