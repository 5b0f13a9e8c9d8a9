#pragma once

#include <vector>

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/cost/cost_model.h"
#include "src/order/pipeline.h"

/// \file planner.h
/// The cost-model query planner: resolves `--method auto --order auto
/// --intersect auto` into the concrete (methods, ordering, backend)
/// triple with the minimum Section-3 predicted cost, at RunSpec
/// resolution time — before anything is oriented or listed. The same
/// enumeration backs `trilist_cli run/count` and the serving daemon's
/// admission pricing, so "what would the planner do" and "what does
/// admission charge" can never disagree.

namespace trilist {

/// One concrete executable configuration plus its predicted price.
struct PlanCandidate {
  std::vector<Method> methods;
  OrientSpec orient;
  IntersectBackend intersect = IntersectBackend::kMerge;
  /// Paper-metric operations (sum over methods).
  double predicted_ops = 0;
  /// Weighted comparable cost (sum over methods; the planner's argmin).
  double predicted_cost = 0;
};

/// What the caller pinned and what is free for the planner to choose.
struct PlannerRequest {
  bool auto_method = false;
  bool auto_order = false;
  bool auto_intersect = false;
  /// Pinned values, consulted when the matching auto_* flag is false.
  std::vector<Method> methods{Method::kE1};
  OrientSpec orient{PermutationKind::kDescending, 0};
  IntersectBackend intersect = IntersectBackend::kMerge;
};

/// A resolved plan: the argmin candidate plus the full ranking (ascending
/// predicted cost; ties keep enumeration order, which is deterministic).
struct PlanResult {
  PlanCandidate chosen;
  std::vector<PlanCandidate> candidates;
};

/// The methods the planner races under `--methods auto`, each as a
/// single-method plan: the four fundamental representatives T1, T2, E1
/// and E4 (Section 2.4: every other vertex or scanning-edge iterator is
/// cost-isomorphic to one of them under the order axis) plus the lookup
/// edge iterators L1 and L2, which Table 2 puts in the T2 and T1 cost
/// classes and which L3-L6 mirror the same way. `FundamentalMethods()`
/// stays the meaning of `--methods fundamental`.
const std::vector<Method>& PlannerMethodCandidates();

/// The ordering kinds the planner enumerates under `--order auto`: the
/// four closed-form positional families plus the degree-tailored split.
/// theta_U is excluded (never optimal — Corollary 3 territory); the
/// graph-dependent degen/aot orders are excluded because the model can
/// only price their theta_D proxy, which would tie theta_D exactly and
/// pick an order on proxy noise.
const std::vector<PermutationKind>& PlannerOrderCandidates();

/// The backends the planner enumerates under `--intersect auto`. Only
/// scanning edge iterators are affected; for method sets without an SEI
/// member the backend axis collapses to kMerge.
const std::vector<IntersectBackend>& PlannerBackendCandidates();

/// Enumerates every free axis of `req` against `model` and returns the
/// minimum-predicted-cost configuration. Deterministic: a fixed
/// enumeration order breaks ties.
PlanResult ResolvePlan(const cost::CostModel& model,
                       const PlannerRequest& req);

}  // namespace trilist
