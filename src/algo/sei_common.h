#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/algo/intersect.h"
#include "src/algo/simd/intersect_engine.h"
#include "src/graph/graph.h"

/// \file sei_common.h
/// Shared primitives of the scanning edge iterators (E1..E6) and the
/// partitioned executors (src/xm): the sorted range restrictions and the
/// two intersection policies every SEI kernel is templated on.

namespace trilist {
namespace sei {

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

/// Elements of `list` in [lo, hi) (a sorted middle range).
inline std::span<const NodeId> RangeWithin(std::span<const NodeId> list,
                                           NodeId lo, NodeId hi) {
  const auto first = std::lower_bound(list.begin(), list.end(), lo);
  const auto last = std::lower_bound(first, list.end(), hi);
  return list.subspan(static_cast<size_t>(first - list.begin()),
                      static_cast<size_t>(last - first));
}

/// Default intersection policy: the scalar merge, with the hub and window
/// arguments compiled away — the zero-overhead path every caller without
/// an engine gets.
struct DirectMerge {
  template <typename Emit>
  void operator()(std::span<const NodeId> a, simd::SpanOwner,
                  std::span<const NodeId> b, simd::SpanOwner, NodeId,
                  NodeId, int64_t* comparisons, Emit&& emit) const {
    *comparisons += IntersectMergeT(a, b, emit);
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
