#include "src/algo/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/algo/simd/bitmap_index.h"
#include "src/util/cpu_features.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

int64_t ReferenceIntersectionSize(const std::vector<NodeId>& a,
                                  const std::vector<NodeId>& b) {
  const std::set<NodeId> sa(a.begin(), a.end());
  int64_t count = 0;
  std::set<NodeId> seen;
  for (NodeId x : b) {
    if (sa.count(x) > 0 && seen.insert(x).second) ++count;
  }
  return count;
}

// Each kernel template behind one generic lambda, so the helpers below
// can run any of them with a test-local emit.
constexpr auto kMerge = [](auto a, auto b, auto&& emit) {
  return IntersectMergeT(a, b, emit);
};
constexpr auto kGallop = [](auto a, auto b, auto&& emit) {
  return IntersectGallopT(a, b, emit);
};
constexpr auto kAuto = [](auto a, auto b, auto&& emit) {
  return IntersectAutoT(a, b, emit);
};
/// Matches found by `kernel`, counted by the emit.
template <typename Kernel>
int64_t Matches(Kernel kernel, std::span<const NodeId> a,
                std::span<const NodeId> b) {
  int64_t matches = 0;
  kernel(a, b, [&matches](NodeId) { ++matches; });
  return matches;
}

/// Comparisons `kernel` performs, discarding its matches.
template <typename Kernel>
int64_t Comparisons(Kernel kernel, std::span<const NodeId> a,
                    std::span<const NodeId> b) {
  return kernel(a, b, [](NodeId) {});
}

/// Elements `kernel` emits, in emission order.
template <typename Kernel>
std::vector<NodeId> Emitted(Kernel kernel, std::span<const NodeId> a,
                            std::span<const NodeId> b) {
  std::vector<NodeId> out;
  kernel(a, b, [&out](NodeId v) { out.push_back(v); });
  return out;
}

TEST(IntersectTest, SmallHandCases) {
  const std::vector<NodeId> a = {1, 3, 5, 7, 9};
  const std::vector<NodeId> b = {2, 3, 4, 7, 10};
  EXPECT_EQ(Matches(kMerge, a, b), 2);
  EXPECT_EQ(Matches(kGallop, a, b), 2);
  EXPECT_EQ(Matches(kAuto, a, b), 2);
}

TEST(IntersectTest, EmptyAndDisjoint) {
  const std::vector<NodeId> a = {1, 2, 3};
  const std::vector<NodeId> empty;
  EXPECT_EQ(Matches(kMerge, a, empty), 0);
  EXPECT_EQ(Matches(kGallop, empty, a), 0);
  const std::vector<NodeId> b = {10, 20};
  EXPECT_EQ(Matches(kAuto, a, b), 0);
}

TEST(IntersectTest, IdenticalLists) {
  const std::vector<NodeId> a = {2, 4, 6, 8};
  EXPECT_EQ(Matches(kMerge, a, a), 4);
  EXPECT_EQ(Matches(kGallop, a, a), 4);
}

TEST(IntersectTest, EmitsTheActualElements) {
  const std::vector<NodeId> a = {1, 4, 6, 9};
  const std::vector<NodeId> b = {4, 9, 12};
  EXPECT_EQ(Emitted(kMerge, a, b), (std::vector<NodeId>{4, 9}));
  EXPECT_EQ(Emitted(kGallop, a, b), (std::vector<NodeId>{4, 9}));
}

TEST(IntersectTest, RandomizedAgainstReference) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t la = rng.NextBounded(50);
    const size_t lb = rng.NextBounded(800);
    std::set<NodeId> sa;
    std::set<NodeId> sb;
    while (sa.size() < la) {
      sa.insert(static_cast<NodeId>(rng.NextBounded(1000)));
    }
    while (sb.size() < lb) {
      sb.insert(static_cast<NodeId>(rng.NextBounded(1000)));
    }
    const std::vector<NodeId> a(sa.begin(), sa.end());
    const std::vector<NodeId> b(sb.begin(), sb.end());
    const int64_t expected = ReferenceIntersectionSize(a, b);
    ASSERT_EQ(Matches(kMerge, a, b), expected) << trial;
    ASSERT_EQ(Matches(kGallop, a, b), expected) << trial;
    ASSERT_EQ(Matches(kAuto, a, b), expected) << trial;
  }
}

/// The textbook three-way merge loop, kept here (not in src/) as the
/// oracle IntersectMergeT's branch-free steps must reproduce: matches
/// appended to *out, comparisons returned.
int64_t ThreeWayMerge(std::span<const NodeId> a, std::span<const NodeId> b,
                      std::vector<NodeId>* out) {
  int64_t comparisons = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    ++comparisons;
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return comparisons;
}

/// `len` sorted values drawn from [0, range); duplicates allowed.
std::vector<NodeId> SortedSample(size_t len, uint64_t range, Rng* rng) {
  std::vector<NodeId> v(len);
  for (auto& x : v) x = static_cast<NodeId>(rng->NextBounded(range));
  std::sort(v.begin(), v.end());
  return v;
}

TEST(IntersectTest, MergeMatchesThreeWayOracle) {
  // Non-strict inputs (a narrow value range forces duplicates), strict
  // ones, empty lists, singletons and skewed pairs (200 against a few,
  // whose long runs take the 8-step path): same emitted sequence, same
  // count.
  Rng rng(19);
  const size_t lengths[] = {0, 1, 2, 3, 8, 17, 40, 200};
  for (const size_t la : lengths) {
    for (const size_t lb : lengths) {
      for (const uint64_t range : {4, 30, 1000}) {
        for (int trial = 0; trial < 12; ++trial) {
          const auto a = SortedSample(la, range, &rng);
          const auto b = SortedSample(lb, range, &rng);
          std::vector<NodeId> expected;
          const int64_t expected_cmp = ThreeWayMerge(a, b, &expected);
          std::vector<NodeId> got;
          const int64_t cmp =
              IntersectMergeT(a, b, [&got](NodeId v) { got.push_back(v); });
          ASSERT_EQ(got, expected) << la << "x" << lb << " range " << range;
          ASSERT_EQ(cmp, expected_cmp)
              << la << "x" << lb << " range " << range;
        }
      }
    }
  }
}

TEST(IntersectTest, GallopCheaperOnExtremeAsymmetry) {
  // |A| = 4 against |B| = 100000: gallop must use far fewer comparisons.
  Rng rng(13);
  std::vector<NodeId> big(100000);
  NodeId cur = 0;
  for (auto& v : big) {
    cur += 1 + static_cast<NodeId>(rng.NextBounded(5));
    v = cur;
  }
  const std::vector<NodeId> small = {big[10], big[5000], big[70000],
                                     big[99999]};
  int64_t merge_cmp = Comparisons(kMerge, small, big);
  int64_t gallop_cmp = Comparisons(kGallop, small, big);
  EXPECT_GT(merge_cmp, 50000);
  EXPECT_LT(gallop_cmp, 300);
}

TEST(IntersectTest, AutoEmptySpansPerformNoComparisons) {
  const std::vector<NodeId> a = {1, 2, 3};
  const std::vector<NodeId> empty;
  std::vector<NodeId> out;
  auto emit = [&out](NodeId v) { out.push_back(v); };
  EXPECT_EQ(IntersectAutoT(empty, empty, emit), 0);
  EXPECT_EQ(IntersectAutoT(a, empty, emit), 0);
  EXPECT_EQ(IntersectAutoT(empty, a, emit), 0);
  EXPECT_TRUE(out.empty());
}

/// Builds a sorted list [0, len) used by the threshold tests below. The
/// probe list {big values} makes merge scan the whole long list, so the
/// merge and gallop comparison counts differ and identify which kernel
/// Auto dispatched to.
std::vector<NodeId> Iota(size_t len) {
  std::vector<NodeId> v(len);
  for (size_t i = 0; i < len; ++i) v[i] = static_cast<NodeId>(i);
  return v;
}

TEST(IntersectTest, AutoDispatchesMergeAtExactly32xRatio) {
  const std::vector<NodeId> small = {1000000, 1000001};
  const std::vector<NodeId> big = Iota(32 * small.size());  // exactly 32x
  const int64_t merge_cmp = Comparisons(kMerge, small, big);
  const int64_t gallop_cmp = Comparisons(kGallop, small, big);
  ASSERT_NE(merge_cmp, gallop_cmp) << "test needs distinguishable kernels";
  EXPECT_EQ(Comparisons(kAuto, small, big), merge_cmp);
  // Argument order must not matter.
  EXPECT_EQ(Comparisons(kAuto, big, small), merge_cmp);
}

TEST(IntersectTest, AutoDispatchesGallopJustAbove32xRatio) {
  const std::vector<NodeId> small = {1000000, 1000001};
  const std::vector<NodeId> big = Iota(32 * small.size() + 1);  // 32.5x
  const int64_t merge_cmp = Comparisons(kMerge, small, big);
  const int64_t gallop_cmp = Comparisons(kGallop, small, big);
  ASSERT_NE(merge_cmp, gallop_cmp) << "test needs distinguishable kernels";
  EXPECT_EQ(Comparisons(kAuto, small, big), gallop_cmp);
  EXPECT_EQ(Comparisons(kAuto, big, small), gallop_cmp);
}

TEST(IntersectTest, GallopMonotoneCursorHandlesDuplicateFreeRuns) {
  // Sequential keys: the monotone cursor must not skip matches.
  std::vector<NodeId> a(100);
  std::vector<NodeId> b(100);
  for (NodeId i = 0; i < 100; ++i) {
    a[i] = i;
    b[i] = i;
  }
  EXPECT_EQ(Matches(kGallop, a, b), 100);
}

// ---------------------------------------------------------------------------
// Closed-form merge count and the bitmap backend's hub shortcut.

/// Strictly increasing list of `len` values with the given stride pattern.
std::vector<NodeId> Strided(size_t len, NodeId start, unsigned seed) {
  Rng rng(seed);
  std::vector<NodeId> v(len);
  NodeId cur = start;
  for (auto& x : v) {
    cur += 1 + static_cast<NodeId>(rng.NextBounded(3));
    x = cur;
  }
  return v;
}

TEST(IntersectTest, RandomizedDifferentialAllKernels) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    std::set<NodeId> sa;
    std::set<NodeId> sb;
    const size_t la = rng.NextBounded(trial % 3 == 0 ? 40 : 600);
    const size_t lb = rng.NextBounded(600);
    while (sa.size() < la) {
      sa.insert(static_cast<NodeId>(rng.NextBounded(2000)));
    }
    while (sb.size() < lb) {
      sb.insert(static_cast<NodeId>(rng.NextBounded(2000)));
    }
    const std::vector<NodeId> a(sa.begin(), sa.end());
    const std::vector<NodeId> b(sb.begin(), sb.end());
    const auto n = static_cast<int64_t>(Emitted(kMerge, a, b).size());
    ASSERT_EQ(Matches(kGallop, a, b), n) << trial;
    ASSERT_EQ(Matches(kAuto, a, b), n) << trial;
  }
}

TEST(IntersectTest, ScalarMergeComparisonsClosedForm) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::set<NodeId> sa;
    std::set<NodeId> sb;
    while (sa.size() < rng.NextBounded(200)) {
      sa.insert(static_cast<NodeId>(rng.NextBounded(500)));
    }
    while (sb.size() < rng.NextBounded(200)) {
      sb.insert(static_cast<NodeId>(rng.NextBounded(500)));
    }
    const std::vector<NodeId> a(sa.begin(), sa.end());
    const std::vector<NodeId> b(sb.begin(), sb.end());
    int64_t matches = 0;
    const int64_t cmp = IntersectMergeT(a, b, [&matches](NodeId) { ++matches; });
    ASSERT_EQ(simd::ScalarMergeComparisons(a, b,
                                           static_cast<size_t>(matches)),
              cmp)
        << trial;
    ASSERT_EQ(simd::ScalarMergeComparisons(b, a,
                                           static_cast<size_t>(matches)),
              cmp)
        << trial;
  }
}

/// A hub bitmap of `row` in the layout BitmapIndex stores: words
/// [base_word, base_word + words.size()) of the label space.
struct TestHub {
  std::vector<uint64_t> words;
  uint32_t base_word = 0;

  TestHub(const std::vector<NodeId>& row, uint32_t base, uint32_t end) {
    base_word = base;
    words.assign(end - base, 0);
    for (const NodeId id : row) {
      words[id / 64 - base] |= uint64_t{1} << (id % 64);
    }
  }
  simd::BitmapIndex::HubRef Ref() const {
    return {words.data(), base_word, static_cast<uint32_t>(words.size())};
  }
};

TEST(HubIntersectTest, TakenPositionsMatchTheMerge) {
  // Two rows over labels [0, 2048) and a window [lo, hi) cut at and off
  // 64-label word boundaries. Each span is its row inside the window, as
  // in the E_k kernels. Whatever path HubIntersect takes (word-AND, a
  // probe of either side, or none), a taken position must emit the
  // merge's matches in order and add the merge's comparison count; an
  // untaken one must emit and count nothing.
  Rng rng(61);
  int taken = 0;
  int declined = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t len_a = rng.NextBounded(trial % 4 == 0 ? 30 : 900);
    const size_t len_b = rng.NextBounded(trial % 4 == 1 ? 30 : 900);
    // Row b's bitmap starts at word b_base, as an in-row's does, so its
    // labels lie at or above it.
    const auto b_base = static_cast<uint32_t>(trial % 3);
    std::set<NodeId> ra;
    std::set<NodeId> rb;
    while (ra.size() < len_a) {
      ra.insert(static_cast<NodeId>(rng.NextBounded(2048)));
    }
    while (rb.size() < len_b) {
      rb.insert(static_cast<NodeId>(b_base * 64 +
                                    rng.NextBounded(2048 - b_base * 64)));
    }
    // Odd trials cut the window at word boundaries, even ones anywhere.
    NodeId lo = static_cast<NodeId>(rng.NextBounded(1024));
    if (trial % 2 == 1) lo -= lo % 64;
    const auto hi = static_cast<NodeId>(lo + rng.NextBounded(2049 - lo));
    const std::vector<NodeId> row_a(ra.begin(), ra.end());
    const std::vector<NodeId> row_b(rb.begin(), rb.end());
    std::vector<NodeId> a;
    std::vector<NodeId> b;
    for (const NodeId v : row_a) {
      if (v >= lo && v < hi) a.push_back(v);
    }
    for (const NodeId v : row_b) {
      if (v >= lo && v < hi) b.push_back(v);
    }
    const TestHub hub_a(row_a, 0, 32);
    const TestHub hub_b(row_b, b_base, 32);
    const bool a_hub = trial % 5 != 0;
    const bool b_hub = trial % 7 != 0;
    std::vector<NodeId> expected;
    const int64_t merge_cmp = IntersectMergeT(
        a, b, [&expected](NodeId v) { expected.push_back(v); });
    std::vector<NodeId> got;
    int64_t cmp = 0;
    const bool took = simd::HubIntersect(
        a_hub ? hub_a.Ref() : simd::BitmapIndex::HubRef{}, a,
        b_hub ? hub_b.Ref() : simd::BitmapIndex::HubRef{}, b, lo, hi, &cmp,
        [&got](NodeId v) { got.push_back(v); });
    const std::string label = "trial " + std::to_string(trial);
    if (took) {
      ++taken;
      ASSERT_EQ(got, expected) << label;
      ASSERT_EQ(cmp, merge_cmp) << label;
    } else {
      ++declined;
      ASSERT_TRUE(got.empty()) << label;
      ASSERT_EQ(cmp, 0) << label;
      // Only a position with two nonempty spans is left to the merge.
      ASSERT_FALSE(a.empty() || b.empty()) << label;
    }
  }
  EXPECT_GT(taken, 100);
  EXPECT_GT(declined, 10);
}

TEST(CpuFeaturesTest, LevelNames) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
}

// ---------------------------------------------------------------------------
// Count-only pair merge (Strided is defined above).

/// Runs IntersectMergePairCount on (a0, b0) and (a1, b1) and checks each
/// lane against the three-way oracle on comparisons and matches.
void ExpectPairLanesMatchOracle(const std::vector<NodeId>& a0,
                                const std::vector<NodeId>& b0,
                                const std::vector<NodeId>& a1,
                                const std::vector<NodeId>& b1,
                                const std::string& what) {
  const auto lanes = IntersectMergePairCount(a0, b0, a1, b1);
  const std::vector<NodeId>* const inputs[2][2] = {{&a0, &b0}, {&a1, &b1}};
  for (int lane = 0; lane < 2; ++lane) {
    std::vector<NodeId> matches;
    const int64_t comparisons =
        ThreeWayMerge(*inputs[lane][0], *inputs[lane][1], &matches);
    EXPECT_EQ(lanes[lane].comparisons, comparisons)
        << what << ", lane " << lane;
    EXPECT_EQ(lanes[lane].matches, static_cast<int64_t>(matches.size()))
        << what << ", lane " << lane;
  }
}

TEST(PairMergeTest, RandomBalancedLanesMatchTheOracle) {
  // Strict lists, as the E kernels pass, and non-strict ones (the closed
  // form counts those too).
  Rng rng(23);
  for (unsigned trial = 0; trial < 300; ++trial) {
    const auto a0 = Strided(rng.NextBounded(300), 0, 4 * trial);
    const auto b0 = Strided(rng.NextBounded(300), 0, 4 * trial + 1);
    const auto a1 = Strided(rng.NextBounded(300), 0, 4 * trial + 2);
    const auto b1 = Strided(rng.NextBounded(300), 0, 4 * trial + 3);
    ExpectPairLanesMatchOracle(a0, b0, a1, b1,
                               "strict trial " + std::to_string(trial));
    const auto c0 = SortedSample(rng.NextBounded(100), 30, &rng);
    const auto d0 = SortedSample(rng.NextBounded(100), 30, &rng);
    ExpectPairLanesMatchOracle(c0, d0, a1, b1,
                               "non-strict trial " + std::to_string(trial));
  }
}

TEST(PairMergeTest, EdgeCaseLanesMatchTheOracle) {
  const std::vector<NodeId> empty;
  const auto mid = Strided(200, 0, 31);
  const auto other = Strided(200, 0, 32);
  // 1:1000 skew each way: the short list spread over the long one's range.
  const auto hub = Strided(3000, 0, 33);
  const std::vector<NodeId> leaf = {hub[0], hub[1500] + 1, hub[2999]};
  const auto above = Strided(200, 100000, 34);
  const auto short_pair = Strided(3, 0, 35);

  ExpectPairLanesMatchOracle(leaf, hub, hub, leaf, "1:1000 skew each way");
  ExpectPairLanesMatchOracle(empty, mid, mid, other, "lane 0 empty");
  ExpectPairLanesMatchOracle(mid, other, mid, empty, "lane 1 empty");
  ExpectPairLanesMatchOracle(empty, empty, empty, empty, "both lanes empty");
  ExpectPairLanesMatchOracle(mid, mid, other, other, "identical lists");
  ExpectPairLanesMatchOracle(mid, above, above, mid, "disjoint ranges");
  ExpectPairLanesMatchOracle(short_pair, other, mid, other,
                             "lane 0 exhausted first");
  ExpectPairLanesMatchOracle(mid, other, other, short_pair,
                             "lane 1 exhausted first");
}

}  // namespace
}  // namespace trilist
