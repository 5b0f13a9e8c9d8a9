#include "src/xm/partitioned.h"

#include <gtest/gtest.h>

#include <string>

#include "src/algo/registry.h"
#include "src/degree/graphicality.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/gen/erdos_renyi.h"
#include "src/gen/residual_generator.h"
#include "src/graph/builder.h"
#include "src/order/pipeline.h"
#include "src/util/rng.h"
#include "tests/expect_same_ops.h"

namespace trilist {
namespace {

Graph HeavyGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  const DiscretePareto base(1.7, 10.0);
  const TruncatedDistribution fn(base, 40);
  std::vector<int64_t> degrees(n);
  for (auto& d : degrees) d = fn.Sample(&rng);
  MakeGraphic(&degrees);
  ResidualGenOptions options;
  options.strict = false;
  return GenerateExactDegree(degrees, &rng, nullptr, options).ValueOrDie();
}

TEST(PartitioningTest, CoversLabelSpaceContiguously) {
  const Graph g = HeavyGraph(500, 1);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  for (size_t k : {1u, 2u, 3u, 7u, 100u}) {
    const Partitioning parts(og, k);
    EXPECT_GE(parts.num_partitions(), 1u);
    EXPECT_LE(parts.num_partitions(), k);
    EXPECT_EQ(parts.lower(0), 0u);
    EXPECT_EQ(parts.upper(parts.num_partitions() - 1), og.num_nodes());
    for (size_t p = 0; p + 1 < parts.num_partitions(); ++p) {
      EXPECT_EQ(parts.upper(p), parts.lower(p + 1));
      EXPECT_LT(parts.lower(p), parts.upper(p));
    }
  }
}

TEST(PartitioningTest, MemoryBudgetDerivesK) {
  const Graph g = HeavyGraph(500, 2);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  const auto total =
      static_cast<int64_t>(og.num_arcs() * sizeof(NodeId));
  const Partitioning one = Partitioning::ForMemoryBudget(og, total * 2);
  EXPECT_EQ(one.num_partitions(), 1u);
  const Partitioning several =
      Partitioning::ForMemoryBudget(og, total / 4 + 1);
  EXPECT_GE(several.num_partitions(), 3u);
  EXPECT_LE(several.num_partitions(), 5u);
}

class PartitionedEquivalenceTest : public ::testing::TestWithParam<size_t> {
};

TEST_P(PartitionedEquivalenceTest, E1MatchesInMemory) {
  const size_t k = GetParam();
  const Graph g = HeavyGraph(600, 3);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CollectingSink reference;
  const OpCounts mem = RunMethod(Method::kE1, og, &reference);
  const Partitioning parts(og, k);
  CollectingSink partitioned;
  IoStats io;
  const OpCounts xm = RunPartitionedE1(og, parts, &partitioned, &io);
  EXPECT_EQ(partitioned.Sorted(), reference.Sorted());
  ExpectSameOps(xm, mem, "k=" + std::to_string(k));
  // I/O ledger: one resident load of the whole graph across passes, one
  // full stream per pass.
  const auto graph_bytes =
      static_cast<int64_t>(og.num_arcs() * sizeof(NodeId));
  EXPECT_EQ(io.passes, static_cast<int64_t>(parts.num_partitions()));
  EXPECT_EQ(io.bytes_loaded, graph_bytes);
  EXPECT_EQ(io.bytes_streamed, io.passes * graph_bytes);
}

TEST_P(PartitionedEquivalenceTest, E2MatchesInMemory) {
  const size_t k = GetParam();
  const Graph g = HeavyGraph(600, 4);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CollectingSink reference;
  const OpCounts mem = RunMethod(Method::kE2, og, &reference);
  const Partitioning parts(og, k);
  CollectingSink partitioned;
  IoStats io;
  const OpCounts xm = RunPartitionedE2(og, parts, &partitioned, &io);
  EXPECT_EQ(partitioned.Sorted(), reference.Sorted());
  ExpectSameOps(xm, mem, "k=" + std::to_string(k));
  EXPECT_EQ(io.bytes_loaded,
            static_cast<int64_t>(og.num_arcs() * sizeof(NodeId)));
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionedEquivalenceTest,
                         ::testing::Values(1, 2, 3, 8, 64));

TEST(PartitionedTest, EmptyGraph) {
  const OrientedGraph og =
      OrientNamed(MakeEmpty(0), PermutationKind::kAscending);
  const Partitioning parts(og, 4);
  CollectingSink sink;
  IoStats io;
  const OpCounts ops = RunPartitionedE1(og, parts, &sink, &io);
  EXPECT_EQ(ops.triangles, 0);
  EXPECT_EQ(io.bytes_loaded, 0);
}

TEST(PartitionedTest, MorePartitionsMoreStreaming) {
  // The I/O trade-off the paper's future work targets: streamed bytes
  // grow linearly with K while resident loads stay constant.
  const Graph g = HeavyGraph(800, 5);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CollectingSink sink1;
  CollectingSink sink8;
  IoStats io1;
  IoStats io8;
  RunPartitionedE1(og, Partitioning(og, 1), &sink1, &io1);
  RunPartitionedE1(og, Partitioning(og, 8), &sink8, &io8);
  EXPECT_EQ(io1.bytes_loaded, io8.bytes_loaded);
  EXPECT_EQ(io8.bytes_streamed, io8.passes * io1.bytes_streamed);
  EXPECT_GT(io8.passes, io1.passes);
}

}  // namespace
}  // namespace trilist
