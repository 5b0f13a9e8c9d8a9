#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/algo/cost.h"
#include "src/core/spread.h"
#include "src/order/permutation.h"

/// \file out_degree_model.h
/// The conditional out-degree model of Section 3.2: given a realized
/// degree sequence D_n and a permutation theta, the expected out-degree of
/// the node holding label i is
///
///   E[X_i(theta) | D_n] ~ d_i(theta) * sum_{j<i} w(d_j(theta))
///                         / (sum_k w(d_k) - w(d_i(theta)))      (Eq. 12)
///
/// and q_i(theta) = E[X_i | D_n] / d_i(theta) (Eq. 13) is the fraction of
/// node i's neighbors holding smaller labels. Proposition 4 then collapses
/// the expected cost of every method into
///
///   E[c_n(M, theta) | D_n] ~ (1/n) sum_i g(d_i(theta)) h(q_i(theta)).
///
/// These are the *sequence-conditional* models: one level below the
/// distribution-level Eq. (50) (which replaces the realized sequence by
/// its generating distribution) and one level above a measured graph.

namespace trilist {

/// Degrees arranged by label: entry i is d_i(theta), i.e. the degree of
/// the node that received label i. Input `ascending_degrees` is the
/// paper's A_n vector (sort the sampled sequence ascending first).
std::vector<int64_t> DegreesByLabel(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta);

/// Eq. (12): expected out-degrees E[X_i | D_n] indexed by label.
/// \param degrees_by_label output of DegreesByLabel.
/// \param w weight function of the neighbor-selection model.
std::vector<double> ExpectedOutDegrees(
    const std::vector<int64_t>& degrees_by_label,
    const WeightFn& w = WeightFn::Identity());

/// Eq. (13): q_i(theta) = E[X_i | D_n] / d_i(theta), indexed by label.
/// Labels with degree zero get q = 0.
std::vector<double> ExpectedSmallerNeighborFractions(
    const std::vector<int64_t>& degrees_by_label,
    const WeightFn& w = WeightFn::Identity());

/// Per-node cost of every method under one theta, indexed by
/// static_cast<size_t>(Method).
using MethodCosts = std::array<double, kNumMethods>;

/// Proposition 4 for all 18 methods at once: entry m is the
/// sequence-conditional per-node cost (1/n) sum_i g(d_i(theta))
/// h_m(q_i(theta)). The methods share one q-vector and differ only in h
/// (Table 4), so this is one O(n) pass: one DegreesByLabel scatter, q_i
/// computed inline exactly as ExpectedSmallerNeighborFractions does, and
/// six running sums, one per distinct h shape (T1, T2, T3 and the SEI
/// sums T1+T2, T1+T3, T2+T3), each in label order and divided by n at
/// the end. Every entry is bit-identical to pricing its method alone with
/// that reference loop.
MethodCosts SequenceConditionalCosts(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta,
    const WeightFn& w = WeightFn::Identity());

/// `count` consecutive positions (ranks or labels) holding degree
/// `degree`: the block-compressed form of a degree sequence.
struct DegreeRun {
  int64_t degree = 0;
  size_t count = 0;
  bool operator==(const DegreeRun&) const = default;
};

/// Appends `count` positions of `degree`, merging into the last run when
/// it has the same degree (so equal sequences compress identically);
/// count == 0 appends nothing.
void AppendRun(std::vector<DegreeRun>* runs, int64_t degree, size_t count);

/// Number of positions the runs cover (sum of counts): n.
size_t RunsLength(const std::vector<DegreeRun>& runs);

/// Maximal blocks of equal consecutive entries. On the ascending A_n this
/// is one run per distinct degree.
std::vector<DegreeRun> CompressRuns(const std::vector<int64_t>& sequence);

/// SequenceConditionalCosts from the label-order degree runs, in
/// O(runs.size()) instead of O(n): the realized-sequence form of the
/// paper's Algorithm 2. Within a run of degree d, w(d), W - w(d) and g(d)
/// are constant and the prefix weight grows by w(d) per label, so q is
/// affine in the position. Every Table-4 h shape is a quadratic in q, so
/// a run contributes closed-form sums of q and q^2 (Σk and Σk^2). Agrees
/// with the O(n) pass to rounding (≤1e-12 relative); equal run lists
/// price bit-identically.
MethodCosts RunConditionalCosts(const std::vector<DegreeRun>& runs_by_label,
                                const WeightFn& w = WeightFn::Identity());

/// One entry of SequenceConditionalCosts: the per-node cost of `m`.
double SequenceConditionalCost(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta,
    Method m, const WeightFn& w = WeightFn::Identity());

}  // namespace trilist
