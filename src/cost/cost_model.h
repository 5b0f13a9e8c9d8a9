#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/core/out_degree_model.h"
#include "src/order/pipeline.h"

/// \file cost_model.h
/// The Section-3 pricing layer: one CostModel per resident degree
/// sequence, able to price any (method, ordering, backend) triple before
/// anything runs. Hoisted out of the serve catalog so the planner
/// (src/run/planner.h), the admission controller (trilistd) and the
/// benches all consult the same arithmetic.
///
/// Two currencies:
///   - PredictedOps: the paper metric, n * (1/n) sum_i g(d_i(theta))
///     h(q_i(theta)) (Proposition 4) — elementary operations of the
///     method's own kind, comparable only within a family.
///   - PredictedCost: ops scaled by per-operation weights so families
///     become comparable (Table 3: scanning intersection steps are ~95x
///     cheaper than hash probes or candidate-tuple checks — the
///     advisor's sei_speedup convention), then divided by the backend
///     speedup for scanning edge iterators (SIMD/bitmap accelerate the
///     intersection loop only; vertex and lookup iterators never touch
///     it).

namespace trilist::cost {

/// Per-operation weights and backend speedups. The defaults encode the
/// paper's measured Table-3 ratios; zero or negative simd_speedup means
/// "derive from the CPU level this process actually dispatches to".
struct CostModelParams {
  /// Weight of one vertex-iterator candidate-tuple check, relative to one
  /// scanning-intersection step (the advisor's sei_speedup = 95).
  double vertex_op_weight = 95.0;
  /// Weight of one scanning-intersection step (the numeraire).
  double scan_op_weight = 1.0;
  /// Weight of one hash probe (lookup edge iterators).
  double lookup_op_weight = 95.0;

  /// SEI-only backend speedups (divide the weighted SEI cost).
  /// simd_speedup <= 0 derives from ActiveSimdLevel(): scalar 1, AVX2 4,
  /// AVX-512 8 (lane width over the scalar two-pointer merge).
  double simd_speedup = 0.0;
  double bitmap_speedup = 2.0;
};

/// \brief Prices (method, ordering, backend) triples for one degree
/// sequence. Thread-safe; memoizes per ordering: the first query of an
/// ordering prices all 18 methods at once, and every later query of any
/// method under it is a lookup. Non-seeded orderings (theta_A/D/RR/CRR,
/// split, and degen/aot through theta_D) are priced by degree runs in
/// O(distinct degrees) (RunConditionalCosts of the provider's
/// PricingRuns); seeded theta_U takes one O(n) pass
/// (SequenceConditionalCosts).
/// The key is the provider's pricing kind plus the seed when seeded, so
/// degen and aot share theta_D's entry, and the memo is capped (a
/// seed-sweeping client could otherwise grow it without bound).
class CostModel {
 public:
  /// Memoized orderings kept; past the cap, passes are recomputed
  /// instead of cached.
  static constexpr size_t kMaxMemo = 256;

  /// \param ascending_degrees the realized degree sequence sorted
  ///        ascending (the paper's A_n vector).
  explicit CostModel(std::vector<int64_t> ascending_degrees,
                     CostModelParams params = {});

  const std::vector<int64_t>& ascending_degrees() const {
    return ascending_degrees_;
  }
  const CostModelParams& params() const { return params_; }

  /// Section-3 predicted total operations (paper metric) of running `m`
  /// under `orient`: n times the sequence-conditional cost under the
  /// ordering's pricing permutation. Graph-dependent orderings (degen,
  /// aot) price via their registry-documented theta_D proxy. The first
  /// call per ordering prices every method at once (traced as
  /// "cost.price").
  double PredictedOps(const OrientSpec& orient, Method m) const;

  /// PredictedOps scaled to comparable CPU cost: weighted per family,
  /// divided by the backend speedup when (and only when) `m` is a
  /// scanning edge iterator.
  double PredictedCost(const OrientSpec& orient, Method m,
                       IntersectBackend backend) const;

  /// Sum of PredictedCost over `methods` — the admission controller's
  /// one-number estimate for a whole request.
  double PredictedTotalCost(const OrientSpec& orient,
                            const std::vector<Method>& methods,
                            IntersectBackend backend) const;

  /// The per-operation weight of `m`'s family (no backend division).
  double FamilyWeight(Method m) const;

  /// The effective SEI divisor of `backend` under these params (1 for
  /// the scalar merge).
  double BackendSpeedup(IntersectBackend backend) const;

  /// Measured-side companion: the same weighting applied to a measured
  /// operation count, so predicted and measured costs land in the same
  /// currency and regret is a plain ratio.
  double WeightedCost(double ops, Method m, IntersectBackend backend) const;

 private:
  std::vector<int64_t> ascending_degrees_;
  std::vector<DegreeRun> ascending_runs_;  // CompressRuns(A_n)
  CostModelParams params_;

  mutable std::mutex mu_;
  /// Key: (pricing kind, seed-if-seeded); value: per-node cost per method.
  mutable std::map<std::pair<int, uint64_t>, MethodCosts> memo_;
};

/// Section-3 price of maintaining the triangle count across one edge
/// mutation (u, v): the incremental path intersects the two merged
/// adjacency rows once, so the Σ g(d) h(q) sum over touched nodes
/// reduces to g(d_u) + g(d_v) with g the identity and h ≡ 1 — the merge
/// kernel's worst-case scan bound. Measured comparisons (see
/// dyn::ApplyResult) land in the same currency, so predicted-vs-measured
/// mutation cost is a plain ratio exactly like the listing paths.
double PredictedMutationOps(int64_t degree_u, int64_t degree_v);

}  // namespace trilist::cost
