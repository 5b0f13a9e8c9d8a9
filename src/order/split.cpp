#include "src/order/split.h"

#include <algorithm>
#include <limits>

#include "src/algo/cost.h"
#include "src/core/out_degree_model.h"
#include "src/order/named_orders.h"

namespace trilist {

Permutation SplitPermutation(size_t n, size_t s) {
  s = std::min(s, n);
  std::vector<uint32_t> map(n);
  const size_t tail = n - s;
  for (size_t i = 0; i < tail; ++i) {
    map[i] = static_cast<uint32_t>(s + i);
  }
  for (size_t i = tail; i < n; ++i) {
    map[i] = static_cast<uint32_t>(n - 1 - i);
  }
  return Permutation(std::move(map));
}

std::vector<DegreeRun> SplitRuns(const std::vector<DegreeRun>& ascending_runs,
                                 size_t s) {
  const size_t n = RunsLength(ascending_runs);
  s = std::min(s, n);
  return SegmentRuns(ascending_runs,
                     {{n - s, n, true, -1}, {0, n - s, false, -1}});
}

size_t TailoredSplitIndex(const std::vector<int64_t>& ascending_degrees) {
  return TailoredSplitIndex(CompressRuns(ascending_degrees));
}

size_t TailoredSplitIndex(const std::vector<DegreeRun>& ascending_runs) {
  const size_t n = RunsLength(ascending_runs);
  if (n == 0) return 0;
  // Geometric grid {0, 1, 2, 4, ...} plus the theta_D endpoint s = n:
  // O(log n) candidates, each priced in O(distinct degrees).
  std::vector<size_t> grid{0};
  for (size_t s = 1; s < n; s *= 2) grid.push_back(s);
  grid.push_back(n);
  size_t best_s = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const size_t s : grid) {
    const MethodCosts costs =
        RunConditionalCosts(SplitRuns(ascending_runs, s));
    double cost = std::numeric_limits<double>::infinity();
    for (const Method m : FundamentalMethods()) {
      cost = std::min(cost, costs[static_cast<size_t>(m)]);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_s = s;
    }
  }
  return best_s;
}

Permutation TailoredSplitPermutation(
    const std::vector<int64_t>& ascending_degrees) {
  return SplitPermutation(ascending_degrees.size(),
                          TailoredSplitIndex(ascending_degrees));
}

}  // namespace trilist
