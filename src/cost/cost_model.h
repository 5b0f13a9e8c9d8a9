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
///     become comparable, then divided by the backend speedup for
///     scanning edge iterators (the bitmap backend's hub shortcut speeds
///     the intersection loop only; vertex and lookup iterators never
///     touch it).
///
/// The weights are measured on this code base, not taken from the
/// paper's Table 3 (~95 scanning steps per hash probe or candidate
/// check, and 4-8x for SIMD by lane width). Here an arc probe is one
/// 8-slot group compare and a lookup one indexed load of a dense epoch
/// marker, so both cost a few scanning steps at most. Each constant is ns
/// per paper op relative to E1 on the merge (the numeraire, weight 1),
/// from
///
///   trilist_cli run --in G.tlg --methods T1,E1,L1,L2 --order D
///       --intersect merge|bitmap --repeats 5 --report json
///
/// (wall_s / paper_cost, min over >= 10 runs alternating the backends) on
/// three inputs with theta_D embedded: pareto (`generate --n 100000
/// --alpha 1.5 --seed 1`), hub (`--alpha 1.3 --trunc linear`) and dense
/// (G(1000, 1/2)); one 4-vCPU shared Intel Xeon with AVX-512, GCC 12.2,
/// RelWithDebInfo. ns per paper op (min of 12 rounds):
///
///   input   E1/merge  E1/bitmap   T1     L1     L2
///   pareto    2.39      2.36     8.07   1.80   5.17
///   hub       1.46      1.42     6.01   0.95   2.66
///   dense     1.12      0.48     3.35   0.60   0.90
///
/// E1/merge runs two merges in flight (the count-only pair merge,
/// fundamental.h); E1/bitmap is the hub shortcut in front of that same
/// merge, so it wins where hubs cover the rows (dense) and ties
/// elsewhere. Each constant is the median of its ratios to E1/merge over
/// the three inputs (L1 and L2 both price lookups), to two digits:
/// vertex 3.5 (3.00-4.12), lookup 0.74 (0.54-2.16), bitmap 1.0 (1.01 on
/// pareto, 2.35 on dense). The vertex and lookup weights were set from
/// an earlier run of this table; its medians here (3.38, 0.78) are within
/// 5% of them and were left as they are. Two orders matter more than the
/// values: lookup < vertex, so a lookup iterator beats its vertex twin,
/// whose predicted ops it equals, and whose arc index it does not build;
/// and bitmap does not beat the merge, so a pinned scanning method plans
/// the merge (the tie keeps enumeration order), which builds no index.

namespace trilist::cost {

/// Per-operation weights and backend speedups. The defaults are the
/// measured constants of the file comment.
struct CostModelParams {
  /// Weight of one vertex-iterator candidate-tuple check (an arc probe),
  /// relative to one scanning-intersection step.
  double vertex_op_weight = 3.5;
  /// Weight of one scanning-intersection step (the numeraire).
  double scan_op_weight = 1.0;
  /// Weight of one lookup (a marker load; lookup edge iterators). Below
  /// vertex_op_weight, so L2 (L1) beats T1 (T2) on equal ops.
  double lookup_op_weight = 0.74;

  /// SEI-only backend speedup of kBitmap (divides the weighted SEI cost;
  /// kMerge is 1); below 1 the bitmap backend is slower than the merge.
  double bitmap_speedup = 1.0;
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
