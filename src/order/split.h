#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/out_degree_model.h"
#include "src/order/permutation.h"

/// \file split.h
/// The tailored split ordering of arXiv 2203.04774, expressed in the
/// paper's positional-permutation language: pick a split index s and
/// treat the s largest-degree positions as theta_D while the tail keeps
/// theta_A, i.e.
///
///   theta(i) = s + i          for i <  n - s   (tail: ascending, shifted)
///   theta(i) = n - 1 - i      for i >= n - s   (top block: descending,
///                                               labels 0..s-1)
///
/// s = 0 is exactly theta_A and s = n is exactly theta_D, so the family
/// interpolates between the two pure degree orders. "Tailored" means s is
/// chosen from the degree sequence alone by minimizing the Section-3
/// sequence-conditional cost (Proposition 4) of the best fundamental
/// method over a geometric grid of candidate splits — the ordering is a
/// pure function of A_n, which is what lets the cost model price it
/// exactly (unlike the graph-dependent degenerate and AOT orders).

namespace trilist {

/// The split-s positional permutation of size n (s clamped to [0, n]).
Permutation SplitPermutation(size_t n, size_t s);

/// The label-order degree runs of SplitPermutation(n, s) over
/// CompressRuns(A_n): the top s ranks descending, then the rest
/// ascending — two monotone segments, O(distinct degrees).
std::vector<DegreeRun> SplitRuns(const std::vector<DegreeRun>& ascending_runs,
                                 size_t s);

/// The tailored split index: argmin over a geometric grid of s (including
/// the endpoints 0 and n) of min over the fundamental methods of the
/// sequence-conditional cost on `ascending_degrees`, each grid point
/// priced by degree runs (RunConditionalCosts of SplitRuns).
/// Deterministic; ties break toward the smaller s.
size_t TailoredSplitIndex(const std::vector<int64_t>& ascending_degrees);

/// The same index from the already compressed CompressRuns(A_n).
size_t TailoredSplitIndex(const std::vector<DegreeRun>& ascending_runs);

/// SplitPermutation(n, TailoredSplitIndex(ascending_degrees)).
Permutation TailoredSplitPermutation(
    const std::vector<int64_t>& ascending_degrees);

}  // namespace trilist
