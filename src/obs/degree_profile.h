#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/algo/cost.h"
#include "src/graph/oriented_graph.h"
#include "src/util/json_writer.h"

/// \file degree_profile.h
/// Degree-bucketed model-residual histograms: the observability bridge
/// between the paper's closed-form per-node cost g(d_i) h(q_i)
/// (Proposition 4) and the operations a kernel actually executed.
///
/// Every kernel operation is charged to one node by Tables 1-2: a node
/// with oriented degrees (X, Y) costs C(X,2), X*Y or C(Y,2) per class, and
/// scanning edge iterators add a remote class to the local one
/// (NodeCost in src/algo/cost.h). That per-node cost is a function of the
/// realized orientation alone, so BuildDegreeProfile reads it off the
/// degrees in O(n), groups nodes into log2 degree buckets and
/// accumulates, per bucket:
///
///   measured   sum of NodeCost(M, X_i, Y_i): the realized per-node cost
///   predicted  sum of g(d_i) h_M(q_i) with q_i = X_i / d_i realized
///
/// The measured total equals the listing pass's OpCounts::PaperCost();
/// the runner checks that on every profiled run.
///
/// The relative residual (measured - predicted) / predicted per bucket is
/// the paper's model error localized by degree: a heavy-tailed graph whose
/// high-degree buckets drift exposes exactly where the asymptotic model
/// stops describing the finite-n workload.
///
/// Bucketing: bucket 0 holds d <= 0 (isolated nodes), bucket k >= 1 holds
/// d in [2^(k-1), 2^k - 1]. So d = 1 -> bucket 1, d = 2,3 -> bucket 2,
/// d = 4..7 -> bucket 3, and so on.

namespace trilist::obs {

/// Log2 bucket index of a total degree (see file comment for boundaries).
int DegreeBucketIndex(int64_t d);

/// Inclusive degree range [min, max] covered by a bucket index.
int64_t BucketMinDegree(int bucket);
int64_t BucketMaxDegree(int bucket);

/// One log2-degree bucket of the residual histogram.
struct DegreeBucket {
  int bucket = 0;            ///< log2 bucket index
  int64_t d_min = 0;         ///< smallest degree the bucket covers
  int64_t d_max = 0;         ///< largest degree the bucket covers
  int64_t nodes = 0;         ///< population of the bucket
  int64_t measured_ops = 0;  ///< realized per-node cost (NodeCost)
  double predicted_ops = 0;  ///< sum g(d_i) h_M(q_i)

  /// (measured - predicted) / predicted; 0 when both sides are ~0, and
  /// measured itself when only the prediction vanishes (g(0)=g(1)=0
  /// buckets always have measured 0 too, so this is a degenerate guard).
  double Residual() const;
};

/// Degree-bucketed measured-vs-model histogram for one method.
struct DegreeProfile {
  Method method = Method::kT1;
  std::vector<DegreeBucket> buckets;  ///< dense, index == bucket
  int64_t total_measured = 0;
  double total_predicted = 0;

  double TotalResidual() const;
};

/// Groups the nodes of `g` into log2 total-degree buckets, summing each
/// node's realized cost NodeCost(m, X_i, Y_i) and its closed-form
/// prediction g(d_i) h_M(q_i) per bucket. O(n); lists nothing.
DegreeProfile BuildDegreeProfile(Method m, const OrientedGraph& g);

/// Appends the profile as a JSON object on `w` (deterministic layout,
/// golden-testable; used by the run-report v2 exporter).
void AppendDegreeProfileJson(const DegreeProfile& profile, JsonWriter* w);

/// Renders the per-bucket table the CLI prints under --degree-profile.
std::string DegreeProfileTable(const DegreeProfile& profile);

}  // namespace trilist::obs
