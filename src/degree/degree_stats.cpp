#include "src/degree/degree_stats.h"

#include <algorithm>

namespace trilist {

int64_t MaxDegree(const std::vector<int64_t>& degrees) {
  if (degrees.empty()) return 0;
  return *std::max_element(degrees.begin(), degrees.end());
}

std::vector<int64_t> AscendingDegrees(const Graph& g) {
  // Counting sort: degrees are bounded by the adjacency size, so this is
  // O(n + max degree) where sorting Degrees() is O(n log n).
  const size_t n = g.num_nodes();
  std::vector<size_t> count(static_cast<size_t>(g.MaxDegree()) + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    ++count[static_cast<size_t>(g.Degree(static_cast<NodeId>(v)))];
  }
  std::vector<int64_t> ascending;
  ascending.reserve(n);
  for (size_t d = 0; d < count.size(); ++d) {
    ascending.insert(ascending.end(), count[d], static_cast<int64_t>(d));
  }
  return ascending;
}

}  // namespace trilist
