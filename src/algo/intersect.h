#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>

#include "src/graph/graph.h"

/// \file intersect.h
/// Sorted-set intersection kernels — the elementary operation of scanning
/// edge iterators, and the axis along which SEI beats hash-based families
/// on modern hardware (Table 3).
///
///  * Merge: classic two-pointer scan, O(|A| + |B|); best when the lists
///    have comparable lengths (the paper's best case for intersection).
///    Both SEI backends run it: bitmap only puts a hub shortcut in
///    front of it (src/algo/simd/bitmap_index.h), which accounts the
///    merge's count.
///  * Gallop: binary-search-assisted, O(|A| log(|B|/|A|)); best when one
///    list is much shorter (hub vs leaf adjacency).
///  * Auto: picks between the two from the length ratio.
///
/// Gallop and Auto are not SEI backends: they are the mutation kernels of
/// the incremental counter (src/dyn/dyn_graph.h), whose comparison counts
/// are their own probe counts.
///
/// The kernels are templates taking any callable `emit(NodeId)`, so call
/// sites inline the emission (devirtualized hot path). All kernels return
/// the number of elementary comparisons performed. IntersectMergeT is the
/// one counting two-pointer merge in the tree: the emitting E_k slices,
/// the partitioned executors and the baselines all call it, and the
/// count-only E_k slices pair it (below).
///
/// The merge step is branch-free: it compares a[i] with b[j] once and
/// advances each cursor by a flag (i += a[i] <= b[j]; j += b[j] <= a[i]),
/// so a random interleaving costs no mispredicted branch; only the emit
/// stays conditional. A skewed interleaving (a hub row against a short
/// row: long runs in which one cursor advances alone) would then pay a
/// load-to-compare latency per element, which the three-way loop's
/// well-predicted branch hid. So before each step the merge checks
/// whether the next 8 elements of either list all lie below the other
/// list's current element, and if so takes those 8 steps at once. Both
/// are exactly the textbook three-way loop's steps on any sorted input,
/// strict or not, so the comparison count (the paper's
/// merge_comparisons), emission order and multiplicity are unchanged.
///
/// Each branch-free step still waits for the load its previous cursor
/// advance chose, so one merge is a chain of dependent loads.
/// IntersectMergePairCount runs two independent merges in one loop, a
/// step of each per iteration, so the two chains overlap. It only counts:
/// a lane that stops after i_end and j_end elements of its lists with
/// `matches` matches took i_end + j_end - matches steps of the three-way
/// loop (every step advances one cursor, or both on a match), which is
/// the count IntersectMergeT would return. When one lane runs out, the
/// other finishes in IntersectMergeT. The pair loop has no 8-step run
/// skip, so callers pair only lists of comparable length.

namespace trilist {

/// Two-pointer merge intersection of sorted ranges (branch-free steps
/// and 8-step runs, see the file comment).
/// \return comparisons performed (one per step of the three-way loop).
template <typename Emit>
int64_t IntersectMergeT(std::span<const NodeId> a, std::span<const NodeId> b,
                        Emit&& emit) {
  int64_t comparisons = 0;
  size_t i = 0;
  size_t j = 0;
  const size_t na = a.size();
  const size_t nb = b.size();
  while (i < na && j < nb) {
    const NodeId x = a[i];
    const NodeId y = b[j];
    // A run: the next 8 elements of one list all lie below the other
    // list's current one, so the next 8 steps each advance that cursor
    // alone. Take them at once; the branch is predictable both on random
    // interleavings (rarely taken) and on skewed ones (mostly taken).
    if (i + 8 <= na && a[i + 7] < y) {
      i += 8;
      comparisons += 8;
      continue;
    }
    if (j + 8 <= nb && b[j + 7] < x) {
      j += 8;
      comparisons += 8;
      continue;
    }
    ++comparisons;
    if (x == y) emit(x);
    i += x <= y;
    j += y <= x;
  }
  return comparisons;
}

/// One count-only merge: the three-way loop's steps and the matches.
struct MergeCount {
  int64_t comparisons = 0;
  int64_t matches = 0;
};

/// Intersects (a0, b0) and (a1, b1), two independent sorted pairs, in
/// lockstep (see the file comment); each lane's comparisons equal
/// IntersectMergeT's on the same pair.
inline std::array<MergeCount, 2> IntersectMergePairCount(
    std::span<const NodeId> a0, std::span<const NodeId> b0,
    std::span<const NodeId> a1, std::span<const NodeId> b1) {
  size_t i0 = 0;
  size_t j0 = 0;
  size_t i1 = 0;
  size_t j1 = 0;
  // Both lanes take one step per iteration, so `steps` counts either's.
  int64_t steps = 0;
  while ((i0 < a0.size()) & (j0 < b0.size()) & (i1 < a1.size()) &
         (j1 < b1.size())) {
    const NodeId x0 = a0[i0];
    const NodeId y0 = b0[j0];
    const NodeId x1 = a1[i1];
    const NodeId y1 = b1[j1];
    i0 += x0 <= y0;
    j0 += y0 <= x0;
    i1 += x1 <= y1;
    j1 += y1 <= x1;
    ++steps;
  }
  // A lane that advanced its cursors to i and j in `steps` steps matched
  // i + j - steps times; the one with elements left finishes alone.
  const auto finish = [steps](std::span<const NodeId> a,
                              std::span<const NodeId> b, size_t i,
                              size_t j) {
    MergeCount lane{steps, static_cast<int64_t>(i + j) - steps};
    lane.comparisons += IntersectMergeT(a.subspan(i), b.subspan(j),
                                        [&lane](NodeId) { ++lane.matches; });
    return lane;
  };
  return {finish(a0, b0, i0, j0), finish(a1, b1, i1, j1)};
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
