#include "src/order/named_orders.h"

#include <algorithm>
#include <numeric>

#include "src/util/status.h"

namespace trilist {

const char* PermutationKindName(PermutationKind kind) {
  switch (kind) {
    case PermutationKind::kAscending: return "theta_A";
    case PermutationKind::kDescending: return "theta_D";
    case PermutationKind::kRoundRobin: return "theta_RR";
    case PermutationKind::kComplementaryRoundRobin: return "theta_CRR";
    case PermutationKind::kUniform: return "theta_U";
    case PermutationKind::kDegenerate: return "theta_degen";
    case PermutationKind::kAot: return "aot";
    case PermutationKind::kSplit: return "split";
  }
  return "?";
}

Permutation MakePermutation(PermutationKind kind, size_t n, Rng* rng) {
  switch (kind) {
    case PermutationKind::kAscending:
      return AscendingPermutation(n);
    case PermutationKind::kDescending:
      return DescendingPermutation(n);
    case PermutationKind::kRoundRobin:
      return RoundRobinPermutation(n);
    case PermutationKind::kComplementaryRoundRobin:
      return ComplementaryRoundRobinPermutation(n);
    case PermutationKind::kUniform:
      TRILIST_DCHECK(rng != nullptr);
      return UniformPermutation(n, rng);
    case PermutationKind::kDegenerate:
    case PermutationKind::kAot:
    case PermutationKind::kSplit:
      break;  // not constructible from n alone; see registry.h.
  }
  TRILIST_DCHECK(false);
  return Permutation(n);
}

Permutation AscendingPermutation(size_t n) { return Permutation(n); }

Permutation DescendingPermutation(size_t n) {
  std::vector<uint32_t> map(n);
  for (size_t i = 0; i < n; ++i) {
    map[i] = static_cast<uint32_t>(n - 1 - i);
  }
  return Permutation(std::move(map));
}

Permutation RoundRobinPermutation(size_t n) {
  // Eq. (32), 1-based: odd i -> ceil((n+i)/2); even i -> floor((n-i)/2)+1.
  std::vector<uint32_t> map(n);
  for (size_t j = 0; j < n; ++j) {
    const uint64_t i = j + 1;  // 1-based position
    uint64_t label;
    if (i % 2 == 1) {
      label = (n + i + 1) / 2;  // ceil((n+i)/2)
    } else {
      label = (n - i) / 2 + 1;  // floor((n-i)/2)+1
    }
    map[j] = static_cast<uint32_t>(label - 1);
  }
  return Permutation(std::move(map));
}

Permutation ComplementaryRoundRobinPermutation(size_t n) {
  return RoundRobinPermutation(n).Complement();
}

Permutation UniformPermutation(size_t n, Rng* rng) {
  TRILIST_DCHECK(rng != nullptr);
  std::vector<uint32_t> map(n);
  std::iota(map.begin(), map.end(), 0u);
  for (size_t i = n; i > 1; --i) {
    const size_t j = rng->NextBounded(i);
    std::swap(map[i - 1], map[j]);
  }
  return Permutation(std::move(map));
}

std::vector<DegreeRun> SegmentRuns(
    const std::vector<DegreeRun>& ascending_runs,
    std::initializer_list<RankSegment> segments) {
  const size_t groups = ascending_runs.size();
  std::vector<size_t> starts(groups + 1, 0);  // first rank of each run
  for (size_t g = 0; g < groups; ++g) {
    starts[g + 1] = starts[g] + ascending_runs[g].count;
  }
  std::vector<DegreeRun> runs;
  for (const RankSegment& seg : segments) {
    // Ranks in [0, x) that the segment visits.
    const auto below = [&seg](size_t x) {
      return seg.parity < 0
                 ? x
                 : (x + 1 - static_cast<size_t>(seg.parity)) / 2;
    };
    for (size_t i = 0; i < groups; ++i) {
      const size_t g = seg.descending ? groups - 1 - i : i;
      const size_t lo = std::max(starts[g], seg.lo);
      const size_t hi = std::min(starts[g + 1], seg.hi);
      if (lo < hi) {
        AppendRun(&runs, ascending_runs[g].degree, below(hi) - below(lo));
      }
    }
  }
  return runs;
}

std::vector<DegreeRun> NamedOrderRuns(
    PermutationKind kind, const std::vector<DegreeRun>& ascending_runs) {
  const size_t n = RunsLength(ascending_runs);
  const int n_parity = static_cast<int>(n % 2);
  switch (kind) {
    case PermutationKind::kAscending:
      return SegmentRuns(ascending_runs, {{0, n, false, -1}});
    case PermutationKind::kDescending:
      return SegmentRuns(ascending_runs, {{0, n, true, -1}});
    case PermutationKind::kRoundRobin:
      return SegmentRuns(ascending_runs,
                         {{0, n, true, 1}, {0, n, false, 0}});
    case PermutationKind::kComplementaryRoundRobin:
      return SegmentRuns(ascending_runs, {{0, n, false, n_parity},
                                          {0, n, true, 1 - n_parity}});
    case PermutationKind::kUniform:
    case PermutationKind::kDegenerate:
    case PermutationKind::kAot:
    case PermutationKind::kSplit:
      break;  // seeded or not a fixed shape; see registry.h.
  }
  TRILIST_DCHECK(false);
  return {};
}

}  // namespace trilist
