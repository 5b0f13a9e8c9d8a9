#include "src/cost/cost_model.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"
#include "src/order/registry.h"

namespace trilist::cost {

CostModel::CostModel(std::vector<int64_t> ascending_degrees,
                     CostModelParams params)
    : ascending_degrees_(std::move(ascending_degrees)),
      ascending_runs_(CompressRuns(ascending_degrees_)),
      params_(params) {}

double CostModel::PredictedOps(const OrientSpec& orient, Method m) const {
  const size_t n = ascending_degrees_.size();
  if (n == 0) return 0;
  const OrderingRegistry& registry = OrderingRegistry::Instance();
  const OrderingProvider& pricer =
      registry.Of(registry.Of(orient.kind).pricing_kind());
  const uint64_t seed_key = pricer.seeded() ? orient.seed : 0;
  const auto key = std::make_pair(static_cast<int>(pricer.kind()), seed_key);
  const auto ops = [&](const MethodCosts& costs) {
    return costs[static_cast<size_t>(m)] * static_cast<double>(n);
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return ops(it->second);
  }
  const MethodCosts costs = [&] {
    obs::TraceSpan span("cost.price");
    span.Arg("order", pricer.key());
    if (pricer.seeded()) {
      return SequenceConditionalCosts(
          ascending_degrees_,
          pricer.PricingPermutation(ascending_degrees_, orient.seed));
    }
    return RunConditionalCosts(pricer.PricingRuns(ascending_runs_));
  }();
  std::lock_guard<std::mutex> lock(mu_);
  if (memo_.size() < kMaxMemo) memo_.emplace(key, costs);
  return ops(costs);
}

double CostModel::FamilyWeight(Method m) const {
  switch (MethodFamily(m)) {
    case Family::kVertexIterator: return params_.vertex_op_weight;
    case Family::kScanningEdgeIterator: return params_.scan_op_weight;
    case Family::kLookupEdgeIterator: return params_.lookup_op_weight;
  }
  return 1.0;
}

double CostModel::BackendSpeedup(IntersectBackend backend) const {
  switch (backend) {
    case IntersectBackend::kBitmap: return params_.bitmap_speedup;
    case IntersectBackend::kMerge: return 1.0;
  }
  return 1.0;
}

double CostModel::WeightedCost(double ops, Method m,
                               IntersectBackend backend) const {
  double cost = ops * FamilyWeight(m);
  if (MethodFamily(m) == Family::kScanningEdgeIterator) {
    cost /= BackendSpeedup(backend);
  }
  return cost;
}

double CostModel::PredictedCost(const OrientSpec& orient, Method m,
                                IntersectBackend backend) const {
  return WeightedCost(PredictedOps(orient, m), m, backend);
}

double CostModel::PredictedTotalCost(const OrientSpec& orient,
                                     const std::vector<Method>& methods,
                                     IntersectBackend backend) const {
  double total = 0;
  for (const Method m : methods) {
    total += PredictedCost(orient, m, backend);
  }
  return total;
}

double PredictedMutationOps(int64_t degree_u, int64_t degree_v) {
  const int64_t du = std::max<int64_t>(0, degree_u);
  const int64_t dv = std::max<int64_t>(0, degree_v);
  return static_cast<double>(du + dv);
}

}  // namespace trilist::cost
