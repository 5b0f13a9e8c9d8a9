#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/graph/graph.h"

/// \file sei_common.h
/// Shared primitives of the scanning edge iterators (E1..E6) and the
/// partitioned executors (src/xm): the sorted range restrictions of an
/// adjacency row. PrefixBelow and SuffixAbove run once per outer position
/// of a slice kernel, so they are always inlined: left to GCC's
/// unit-growth limit, fundamental.cpp called SuffixAbove out of line from
/// some rows (E5 and L5 listing).

namespace trilist {
namespace sei {

/// Elements of `list` strictly below `bound` (a sorted prefix).
[[gnu::always_inline]] inline std::span<const NodeId> PrefixBelow(
    std::span<const NodeId> list, NodeId bound) {
  const auto it = std::lower_bound(list.begin(), list.end(), bound);
  return list.first(static_cast<size_t>(it - list.begin()));
}

/// Elements of `list` strictly above `bound` (a sorted suffix).
[[gnu::always_inline]] inline std::span<const NodeId> SuffixAbove(
    std::span<const NodeId> list, NodeId bound) {
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

}  // namespace sei
}  // namespace trilist
