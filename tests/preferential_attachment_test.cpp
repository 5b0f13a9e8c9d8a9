#include "src/gen/preferential_attachment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/algo/brute_force.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

TEST(PreferentialAttachmentTest, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_FALSE(GeneratePreferentialAttachment(5, 0, &rng).ok());
  EXPECT_FALSE(GeneratePreferentialAttachment(3, 3, &rng).ok());
}

TEST(PreferentialAttachmentTest, EdgeCountFormula) {
  Rng rng(2);
  const size_t n = 2000;
  const size_t m = 3;
  auto g = GeneratePreferentialAttachment(n, m, &rng);
  ASSERT_TRUE(g.ok());
  // Seed star: m edges; each later arrival adds exactly m edges.
  EXPECT_EQ(g->num_edges(), m + (n - m - 1) * m);
  EXPECT_EQ(g->num_nodes(), n);
}

TEST(PreferentialAttachmentTest, ArrivalsHaveDegreeAtLeastM) {
  // Every node added after the seed star attaches exactly m edges, so
  // its final degree is >= m (seed-star leaves may stay at degree 1).
  Rng rng(3);
  const size_t m = 4;
  auto g = GeneratePreferentialAttachment(3000, m, &rng);
  ASSERT_TRUE(g.ok());
  for (size_t v = m + 1; v < g->num_nodes(); ++v) {
    ASSERT_GE(g->Degree(static_cast<NodeId>(v)),
              static_cast<int64_t>(m))
        << v;
  }
}

TEST(PreferentialAttachmentTest, HeavyTailEmerges) {
  // Rich-get-richer: the max degree should far exceed the mean, and the
  // top-degree nodes should be early arrivals.
  Rng rng(5);
  const size_t n = 20000;
  auto g = GeneratePreferentialAttachment(n, 2, &rng);
  ASSERT_TRUE(g.ok());
  const double mean_degree =
      2.0 * static_cast<double>(g->num_edges()) / static_cast<double>(n);
  EXPECT_GT(static_cast<double>(g->MaxDegree()), 15.0 * mean_degree);
}

TEST(PreferentialAttachmentTest, MoreClusteredThanUniformAttachment) {
  // BA graphs carry noticeably more triangles than degree-matched
  // expectations from pure randomness at this density.
  Rng rng(7);
  auto g = GeneratePreferentialAttachment(5000, 3, &rng);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(CountTrianglesReference(*g), 0u);
}

TEST(PreferentialAttachmentTest, DeterministicGivenSeed) {
  Rng a(11);
  Rng b(11);
  auto ga = GeneratePreferentialAttachment(500, 2, &a);
  auto gb = GeneratePreferentialAttachment(500, 2, &b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga->EdgeList(), gb->EdgeList());
}

}  // namespace
}  // namespace trilist
