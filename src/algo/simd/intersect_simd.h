#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/graph/graph.h"
#include "src/util/cpu_features.h"

/// \file intersect_simd.h
/// Vectorized block-merge intersection of sorted NodeId spans.
///
/// The kernel walks both lists a register-block at a time (8 lanes under
/// AVX2, 16 under AVX-512F), compares all lane pairs via in-register
/// rotations, and advances the block whose maximum is smaller — the
/// classic shuffling-intersection scheme. For *strictly* sorted inputs
/// (CSR adjacency rows always are) it emits exactly the elements the
/// scalar two-pointer merge emits, in the same ascending order.
///
/// Comparison accounting: the cost model prices the scalar loop, not the
/// hardware lanes, so SIMD results report the *scalar-equivalent* count.
/// Each scalar iteration advances i, j, or both (on match), and the loop
/// stops when the side with the smaller last element is exhausted, with
/// the other cursor at upper_bound(last element of the exhausted side).
/// That makes the count a closed form of the inputs and the match count
/// alone (ScalarMergeComparisons below) — bit-identical to what the
/// two-pointer loop would have returned, for any kernel that finds the
/// same matches.

namespace trilist {
namespace simd {

/// Matches written by one intersection (block kernels write into a
/// caller-provided buffer so the emit callback stays inlined at the call
/// site and the vector body needs no template instantiation).
///
/// Requires STRICTLY ascending inputs; `out` must hold at least
/// min(a.size(), b.size()) elements. Returns the match count; matches are
/// written ascending. Dispatches once per call on ActiveSimdLevel().
size_t BlockMergeIntersect(std::span<const NodeId> a,
                           std::span<const NodeId> b, NodeId* out);

/// Same, pinned to an explicit ISA level (clamped to the detected one);
/// the seam the differential tests drive to cross-check every kernel.
size_t BlockMergeIntersectAt(SimdLevel level, std::span<const NodeId> a,
                             std::span<const NodeId> b, NodeId* out);

/// Shortest span on which the block kernel at `level` runs a vector
/// block: its register width, 16 lanes under AVX-512 and 8 under AVX2.
/// kScalar has no vector block, so every span is shorter than its width.
constexpr size_t BlockWidth(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return 16;
    case SimdLevel::kAvx2:
      return 8;
    case SimdLevel::kScalar:
      break;
  }
  return SIZE_MAX;
}

/// Comparisons the scalar two-pointer merge performs on (a, b), given the
/// number of common elements: iterations = i_end + j_end - matches, with
/// the final cursors determined by whichever list holds the smaller last
/// element. Valid for strictly sorted inputs.
inline int64_t ScalarMergeComparisons(std::span<const NodeId> a,
                                      std::span<const NodeId> b,
                                      size_t matches) {
  if (a.empty() || b.empty()) return 0;
  if (a.back() <= b.back()) {
    const size_t j_end = static_cast<size_t>(
        std::upper_bound(b.begin(), b.end(), a.back()) - b.begin());
    return static_cast<int64_t>(a.size() + j_end - matches);
  }
  const size_t i_end = static_cast<size_t>(
      std::upper_bound(a.begin(), a.end(), b.back()) - a.begin());
  return static_cast<int64_t>(i_end + b.size() - matches);
}

}  // namespace simd
}  // namespace trilist
