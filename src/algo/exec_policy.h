#pragma once

#include <memory>

/// \file exec_policy.h
/// Execution policy for listing runs: how many threads to use and which
/// intersection backend the scanning edge iterators run on. Lives in its
/// own header so callers can build a policy without depending on the
/// kernels.

namespace trilist {

namespace simd {
class BitmapIndex;
}  // namespace simd

/// \brief Sorted-span intersection backend of the SEI kernels (E1..E6,
/// serial and parallel): the two the planner chooses between. Both emit
/// the same triangles in the same order and report the same OpCounts,
/// merge_comparisons included: the hub shortcut accounts the scalar
/// merge's comparison count.
enum class IntersectBackend {
  kMerge = 0,  ///< the two-pointer merge (the reference; the default).
  kBitmap,     ///< hub bitmaps word-AND / bit-probe in front of the
               ///< merge, which takes every other position.
};

/// Name of a backend ("merge", "bitmap").
const char* IntersectBackendName(IntersectBackend backend);

/// Parses a backend name; returns false (leaving *out untouched) on an
/// unknown name.
bool ParseIntersectBackend(const char* name, IntersectBackend* out);

/// \brief Concurrency + kernel knobs for RunMethod / RunMethodParallel.
///
/// The default policy (threads = 1, intersect = kMerge) is exactly the
/// serial reference engine: same code path, same counters, same emission
/// order, so existing callers and all paper tables are unaffected.
struct ExecPolicy {
  /// Total worker threads (the calling thread included). Values <= 1 run
  /// serial; 0 is treated as 1, not as "auto" — ask HardwareThreads()
  /// explicitly when you want the machine width.
  int threads = 1;

  /// Intersection backend of the scanning edge iterators.
  IntersectBackend intersect = IntersectBackend::kMerge;

  /// kBitmap only: a prebuilt index to reuse across methods and repeats
  /// (the Runner builds one per oriented graph under the "bitmap" stage).
  /// Null = the dispatch layer (registry.cpp) builds a transient index per
  /// run, with the auto hub threshold max(64, n/64) (see
  /// simd::BitmapIndex::Options).
  std::shared_ptr<const simd::BitmapIndex> bitmap_index;
};

}  // namespace trilist
