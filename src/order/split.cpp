#include "src/order/split.h"

#include <algorithm>
#include <limits>

#include "src/algo/cost.h"
#include "src/core/out_degree_model.h"

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

size_t TailoredSplitIndex(const std::vector<int64_t>& ascending_degrees) {
  const size_t n = ascending_degrees.size();
  if (n == 0) return 0;
  // Geometric grid {0, 1, 2, 4, ...} plus the theta_D endpoint s = n:
  // O(log n) candidates, each one O(n) pass that prices every method.
  std::vector<size_t> grid{0};
  for (size_t s = 1; s < n; s *= 2) grid.push_back(s);
  grid.push_back(n);
  size_t best_s = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const size_t s : grid) {
    const MethodCosts costs =
        SequenceConditionalCosts(ascending_degrees, SplitPermutation(n, s));
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
