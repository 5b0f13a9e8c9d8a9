#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "src/graph/graph.h"

/// \file intersect.h
/// Sorted-set intersection kernels — the elementary operation of scanning
/// edge iterators, and the axis along which SEI beats hash-based families
/// on modern hardware (Table 3). Four strategies with different
/// asymmetry sweet spots:
///
///  * Merge: classic two-pointer scan, O(|A| + |B|); best when the lists
///    have comparable lengths (the paper's best case for intersection).
///  * Gallop: binary-search-assisted, O(|A| log(|B|/|A|)); best when one
///    list is much shorter (hub vs leaf adjacency).
///  * Auto: picks between the two from the length ratio.
///  * Simd: block merge vectorized with AVX2/AVX-512 when the CPU has
///    them (see src/algo/simd/intersect_simd.h), dispatching at runtime;
///    emits the same elements in the same order as Merge and reports the
///    scalar-equivalent comparison count, so it is a drop-in for cost
///    experiments.
///
/// The kernels are templates taking any callable `emit(NodeId)`, so call
/// sites inline the emission (devirtualized hot path). All kernels return
/// the number of elementary comparisons performed. IntersectMergeT is the
/// one counting two-pointer merge in the tree: the SEI DirectMerge policy,
/// the SIMD duplicate-input fallback, the partitioned executors and the
/// baselines all call it. (The SIMD block kernels' scalar tail keeps its
/// own loop; intersect_simd.cpp says why.)

namespace trilist {

/// Two-pointer merge intersection of sorted ranges.
/// \return comparisons performed (one per loop iteration).
template <typename Emit>
int64_t IntersectMergeT(std::span<const NodeId> a, std::span<const NodeId> b,
                        Emit&& emit) {
  int64_t comparisons = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    ++comparisons;
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      emit(a[i]);
      ++i;
      ++j;
    }
  }
  return comparisons;
}

namespace intersect_internal {

/// Gallops for `key` in list[lo..): returns the first index with
/// list[idx] >= key; adds probe count to *comparisons.
int64_t GallopLowerBound(std::span<const NodeId> list, size_t lo, NodeId key,
                         size_t* found);

}  // namespace intersect_internal

/// Galloping intersection: for each element of the shorter list, gallop
/// (doubling probe + binary search) in the longer one.
template <typename Emit>
int64_t IntersectGallopT(std::span<const NodeId> a,
                         std::span<const NodeId> b, Emit&& emit) {
  // Keep `a` as the shorter list.
  if (a.size() > b.size()) std::swap(a, b);
  int64_t comparisons = 0;
  size_t cursor = 0;
  for (const NodeId key : a) {
    comparisons +=
        intersect_internal::GallopLowerBound(b, cursor, key, &cursor);
    if (cursor >= b.size()) break;
    ++comparisons;
    if (b[cursor] == key) {
      emit(key);
      ++cursor;
    }
  }
  return comparisons;
}

/// Ratio-adaptive dispatch: gallop when one side is > 32x longer.
template <typename Emit>
int64_t IntersectAutoT(std::span<const NodeId> a, std::span<const NodeId> b,
                       Emit&& emit) {
  // Empty input: nothing to intersect, zero comparisons, and no kernel
  // dispatch (the ratio below would divide by zero).
  if (a.empty() || b.empty()) return 0;
  const size_t small = a.size() < b.size() ? a.size() : b.size();
  const size_t large = a.size() < b.size() ? b.size() : a.size();
  // Gallop strictly above the 32x ratio. Compare multiplicatively:
  // `large / small > 32` truncates, wrongly sending e.g. 65-vs-2 (32.5x)
  // to the merge kernel.
  if (large > 32 * small) {
    return IntersectGallopT(a, b, static_cast<Emit&&>(emit));
  }
  return IntersectMergeT(a, b, static_cast<Emit&&>(emit));
}

}  // namespace trilist
