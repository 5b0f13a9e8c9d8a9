#include "src/algo/intersect.h"

#include <algorithm>

namespace trilist {

namespace intersect_internal {

int64_t GallopLowerBound(std::span<const NodeId> list, size_t lo, NodeId key,
                         size_t* found) {
  int64_t comparisons = 0;
  size_t step = 1;
  size_t hi = lo;
  while (hi < list.size() && list[hi] < key) {
    ++comparisons;
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, list.size());
  // Binary search in (lo-1, hi].
  while (lo < hi) {
    ++comparisons;
    const size_t mid = lo + (hi - lo) / 2;
    if (list[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = lo;
  return comparisons;
}

}  // namespace intersect_internal

}  // namespace trilist
