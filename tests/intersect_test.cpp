#include "src/algo/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "src/algo/simd/intersect_simd.h"
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
constexpr auto kSimd = [](auto a, auto b, auto&& emit) {
  return simd::IntersectSimdT(a, b, emit);
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
// SIMD block merge.

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

TEST(SimdIntersectTest, AdversarialSpans) {
  const std::vector<NodeId> empty;
  const std::vector<NodeId> one = {5};
  const std::vector<NodeId> ident = Strided(100, 0, 3);
  const std::vector<NodeId> disjoint_lo = Iota(40);
  std::vector<NodeId> disjoint_hi(40);
  for (size_t i = 0; i < 40; ++i) {
    disjoint_hi[i] = static_cast<NodeId>(1000 + i);
  }
  // Values straddling 64-aligned label boundaries (the bitmap word size;
  // also exercises unaligned vector loads).
  std::vector<NodeId> word_edges;
  for (NodeId w = 0; w < 40; ++w) {
    word_edges.push_back(w * 64 - (w % 2));
    word_edges.push_back(w * 64 + 1);
  }
  std::sort(word_edges.begin(), word_edges.end());
  word_edges.erase(std::unique(word_edges.begin(), word_edges.end()),
                   word_edges.end());
  // 32x-ratio boundary shapes (Auto's threshold; also block-vs-tail).
  const std::vector<NodeId> small2 = {64, 640};
  const std::vector<NodeId> big64 = Iota(64 * small2.size());

  const std::vector<const std::vector<NodeId>*> cases = {
      &empty, &one,         &ident, &disjoint_lo,
      &disjoint_hi, &word_edges,  &small2, &big64};
  for (const auto* pa : cases) {
    for (const auto* pb : cases) {
      const auto expected = Emitted(kMerge, *pa, *pb);
      EXPECT_EQ(Emitted(kSimd, *pa, *pb), expected);
      EXPECT_EQ(Matches(kSimd, *pa, *pb),
                static_cast<int64_t>(expected.size()));
    }
  }
}

TEST(SimdIntersectTest, DuplicatesFallBackToScalarSemantics) {
  // Adjacent duplicates: the block kernels require strict sortedness, so
  // the public kernel must take the scalar path and match Merge exactly —
  // including the comparison count, which only the scalar loop produces
  // for non-strict inputs.
  const std::vector<NodeId> a = {1, 2, 2, 3, 5, 5, 5, 9};
  const std::vector<NodeId> b = {2, 2, 4, 5, 9, 9};
  std::vector<NodeId> merge_out;
  const int64_t merge_cmp =
      IntersectMergeT(a, b, [&merge_out](NodeId v) { merge_out.push_back(v); });
  std::vector<NodeId> simd_out;
  EXPECT_EQ(simd::IntersectSimdT(
                a, b, [&simd_out](NodeId v) { simd_out.push_back(v); }),
            merge_cmp);
  EXPECT_EQ(simd_out, merge_out);
}

TEST(SimdIntersectTest, RandomizedDifferentialAllKernels) {
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
    const auto expected = Emitted(kMerge, a, b);
    const auto n = static_cast<int64_t>(expected.size());
    ASSERT_EQ(Emitted(kSimd, a, b), expected) << trial;
    ASSERT_EQ(Matches(kSimd, a, b), n) << trial;
    ASSERT_EQ(Matches(kGallop, a, b), n) << trial;
    ASSERT_EQ(Matches(kAuto, a, b), n) << trial;
    // simd reports the scalar-equivalent comparison count.
    ASSERT_EQ(Comparisons(kSimd, a, b), Comparisons(kMerge, a, b)) << trial;
  }
}

TEST(SimdIntersectTest, ScalarMergeComparisonsClosedForm) {
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

TEST(SimdIntersectTest, EveryBlockKernelLevelAgrees) {
  // Cross-check all ISA levels the host supports against the scalar
  // block merge; levels above the detected one clamp down (no SIGILL).
  Rng rng(37);
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = Strided(16 + rng.NextBounded(400), 0,
                           1000 + static_cast<unsigned>(trial));
    const auto b = Strided(16 + rng.NextBounded(400), rng.NextBounded(20),
                           2000 + static_cast<unsigned>(trial));
    std::vector<NodeId> ref(std::min(a.size(), b.size()));
    const size_t m0 = simd::BlockMergeIntersectAt(SimdLevel::kScalar, a, b,
                                                  ref.data());
    for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      std::vector<NodeId> out(ref.size());
      const size_t m = simd::BlockMergeIntersectAt(level, a, b, out.data());
      ASSERT_EQ(m, m0) << trial;
      ASSERT_TRUE(std::equal(ref.begin(), ref.begin() + m0, out.begin()))
          << trial;
    }
  }
}

TEST(SimdIntersectTest, ForcedScalarLevelStillCorrect) {
  SetActiveSimdLevelForTest(SimdLevel::kScalar);
  const auto a = Strided(300, 0, 41);
  const auto b = Strided(300, 5, 43);
  EXPECT_EQ(Emitted(kSimd, a, b), Emitted(kMerge, a, b));
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  // Restore runtime dispatch for other tests in this process.
  SetActiveSimdLevelForTest(DetectedSimdLevel());
}

TEST(CpuFeaturesTest, ResolveSimdLevelRules) {
  // Force-scalar wins over everything; any non-empty value except "0".
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, "1", nullptr),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, "yes", "avx512"),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, "0", nullptr),
            SimdLevel::kAvx512);
  // TRILIST_SIMD caps the level but can never raise it past detection.
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, nullptr, "avx2"),
            SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, nullptr, "avx512"),
            SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar, nullptr, "avx2"),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, nullptr, "scalar"),
            SimdLevel::kScalar);
  // Unrecognized request: keep the detected level.
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, nullptr, "bogus"),
            SimdLevel::kAvx2);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
}

}  // namespace
}  // namespace trilist
