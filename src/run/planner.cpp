#include "src/run/planner.h"

#include <algorithm>

namespace trilist {

const std::vector<Method>& PlannerMethodCandidates() {
  static const std::vector<Method> methods{
      Method::kT1, Method::kT2, Method::kE1,
      Method::kE4, Method::kL1, Method::kL2,
  };
  return methods;
}

const std::vector<PermutationKind>& PlannerOrderCandidates() {
  static const std::vector<PermutationKind> kinds{
      PermutationKind::kAscending,
      PermutationKind::kDescending,
      PermutationKind::kRoundRobin,
      PermutationKind::kComplementaryRoundRobin,
      PermutationKind::kSplit,
  };
  return kinds;
}

const std::vector<IntersectBackend>& PlannerBackendCandidates() {
  static const std::vector<IntersectBackend> backends{
      IntersectBackend::kMerge,
      IntersectBackend::kBitmap,
  };
  return backends;
}

namespace {

bool AnySei(const std::vector<Method>& methods) {
  return std::any_of(methods.begin(), methods.end(), [](Method m) {
    return MethodFamily(m) == Family::kScanningEdgeIterator;
  });
}

}  // namespace

PlanResult ResolvePlan(const cost::CostModel& model,
                       const PlannerRequest& req) {
  // Method axis: `auto` races PlannerMethodCandidates() as
  // single-method plans; pinned methods run together as one. T1 comes
  // before L2 (and T2 before L1), so an L method, whose ops equal its
  // vertex twin's, wins only through a lower per-op weight.
  std::vector<std::vector<Method>> method_sets;
  if (req.auto_method) {
    for (const Method m : PlannerMethodCandidates()) {
      method_sets.push_back({m});
    }
  } else {
    method_sets.push_back(req.methods);
  }

  std::vector<OrientSpec> orients;
  if (req.auto_order) {
    for (const PermutationKind kind : PlannerOrderCandidates()) {
      orients.push_back(OrientSpec{kind, 0});
    }
  } else {
    orients.push_back(req.orient);
  }

  PlanResult result;
  for (const std::vector<Method>& methods : method_sets) {
    // The backend only prices into SEI intersection loops; without one
    // the axis is inert and enumerating it would create duplicate plans.
    std::vector<IntersectBackend> backends;
    if (req.auto_intersect && AnySei(methods)) {
      backends = PlannerBackendCandidates();
    } else {
      backends.push_back(req.auto_intersect ? IntersectBackend::kMerge
                                            : req.intersect);
    }
    for (const OrientSpec& orient : orients) {
      for (const IntersectBackend backend : backends) {
        PlanCandidate c;
        c.methods = methods;
        c.orient = orient;
        c.intersect = backend;
        for (const Method m : methods) {
          c.predicted_ops += model.PredictedOps(orient, m);
        }
        c.predicted_cost =
            model.PredictedTotalCost(orient, methods, backend);
        result.candidates.push_back(std::move(c));
      }
    }
  }

  // Ascending predicted cost; stable_sort keeps enumeration order on
  // ties, making the argmin deterministic across runs and platforms.
  std::stable_sort(result.candidates.begin(), result.candidates.end(),
                   [](const PlanCandidate& a, const PlanCandidate& b) {
                     return a.predicted_cost < b.predicted_cost;
                   });
  result.chosen = result.candidates.front();
  return result;
}

}  // namespace trilist
