#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/algo/simd/intersect_engine.h"
#include "src/graph/graph.h"

/// \file sei_common.h
/// Shared primitives of the scanning edge iterators (E1..E6): the sorted
/// range restrictions and the two intersection policies every SEI kernel
/// is templated on.

namespace trilist {
namespace sei {

/// Two-pointer intersection of sorted ranges; emits each common element
/// and counts actual loop steps in *comparisons.
template <typename Emit>
void MergeIntersect(std::span<const NodeId> a, std::span<const NodeId> b,
                    int64_t* comparisons, Emit&& emit) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    ++*comparisons;
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
}

/// Elements of `list` strictly below `bound` (a sorted prefix).
inline std::span<const NodeId> PrefixBelow(std::span<const NodeId> list,
                                           NodeId bound) {
  const auto it = std::lower_bound(list.begin(), list.end(), bound);
  return list.first(static_cast<size_t>(it - list.begin()));
}

/// Elements of `list` strictly above `bound` (a sorted suffix).
inline std::span<const NodeId> SuffixAbove(std::span<const NodeId> list,
                                           NodeId bound) {
  const auto it = std::upper_bound(list.begin(), list.end(), bound);
  return list.subspan(static_cast<size_t>(it - list.begin()));
}

/// Default intersection policy: the scalar merge, with the hub and window
/// arguments compiled away — the zero-overhead path every caller without
/// an engine gets.
struct DirectMerge {
  template <typename Emit>
  void operator()(std::span<const NodeId> a, simd::SpanOwner,
                  std::span<const NodeId> b, simd::SpanOwner, NodeId,
                  NodeId, int64_t* comparisons, Emit&& emit) const {
    MergeIntersect(a, b, comparisons, emit);
  }
};

/// Engine-backed policy: routes every intersection, with its row owners
/// and value window, through the selected backend.
struct EngineIsect {
  simd::IntersectEngine* engine;
  template <typename Emit>
  void operator()(std::span<const NodeId> a, simd::SpanOwner oa,
                  std::span<const NodeId> b, simd::SpanOwner ob, NodeId lo,
                  NodeId hi, int64_t* comparisons, Emit&& emit) const {
    engine->Intersect(a, oa, b, ob, lo, hi, comparisons, emit);
  }
};

/// Calls run(isect) with the policy an optional engine selects: the engine
/// when it is set to a non-default backend, else the direct merge.
template <typename Run>
auto WithIsect(simd::IntersectEngine* engine, Run&& run) {
  if (engine != nullptr && engine->backend() != IntersectBackend::kMerge) {
    return run(EngineIsect{engine});
  }
  return run(DirectMerge{});
}

}  // namespace sei
}  // namespace trilist
