#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/algo/brute_force.h"
#include "src/algo/registry.h"
#include "src/algo/triangle_sink.h"
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

Graph MakeTestGraph(const std::string& kind) {
  Rng rng(12345);
  if (kind == "empty") return MakeEmpty(20);
  if (kind == "single_triangle") return MakeComplete(3);
  if (kind == "k6") return MakeComplete(6);
  if (kind == "star") return MakeStar(20);
  if (kind == "path") return MakePath(20);
  if (kind == "cycle") return MakeCycle(12);
  if (kind == "bowtie") return MakeBowTie(5);
  if (kind == "gnp_sparse") return GenerateGnp(120, 0.03, &rng);
  if (kind == "gnp_dense") return GenerateGnp(60, 0.25, &rng);
  if (kind == "powerlaw") {
    const DiscretePareto base(1.5, 6.0);
    const TruncatedDistribution fn(base, 20);
    std::vector<int64_t> degrees(150);
    for (auto& d : degrees) d = fn.Sample(&rng);
    MakeGraphic(&degrees);
    ResidualGenOptions options;
    options.strict = false;
    return GenerateExactDegree(degrees, &rng, nullptr, options)
        .ValueOrDie();
  }
  ADD_FAILURE() << "unknown graph kind " << kind;
  return MakeEmpty(0);
}

/// Converts label-space triangles to canonical original-ID triangles.
std::vector<CanonicalTriangle> ToCanonical(const OrientedGraph& og,
                                           const CollectingSink& sink) {
  std::vector<CanonicalTriangle> out;
  out.reserve(sink.triangles().size());
  for (const Triangle& t : sink.triangles()) {
    CanonicalTriangle c = {og.OriginalOf(t.x), og.OriginalOf(t.y),
                           og.OriginalOf(t.z)};
    std::sort(c.begin(), c.end());
    out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

using Param = std::tuple<Method, std::string, PermutationKind>;

class MethodCorrectnessTest : public ::testing::TestWithParam<Param> {};

TEST_P(MethodCorrectnessTest, ListsExactlyTheTrianglesOfTheGraph) {
  const auto [method, graph_kind, order] = GetParam();
  const Graph g = MakeTestGraph(graph_kind);
  Rng rng(99);
  const OrientedGraph og = OrientNamed(g, order, &rng);
  CollectingSink sink;
  const OpCounts ops = RunMethod(method, og, &sink);
  const auto expected = NeighborPairTriangles(g);
  const auto got = ToCanonical(og, sink);
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(ops.triangles, static_cast<int64_t>(expected.size()));
  // Every emission respects x < y < z in label space.
  for (const Triangle& t : sink.triangles()) {
    EXPECT_LT(t.x, t.y);
    EXPECT_LT(t.y, t.z);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsGraphsOrders, MethodCorrectnessTest,
    ::testing::Combine(
        ::testing::ValuesIn(AllMethods()),
        ::testing::Values("empty", "single_triangle", "k6", "star", "path",
                          "cycle", "bowtie", "gnp_sparse", "gnp_dense",
                          "powerlaw"),
        ::testing::Values(PermutationKind::kAscending,
                          PermutationKind::kDescending,
                          PermutationKind::kRoundRobin,
                          PermutationKind::kComplementaryRoundRobin,
                          PermutationKind::kUniform,
                          PermutationKind::kDegenerate)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(MethodName(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param) + "_" +
             PermutationKindName(std::get<2>(info.param));
    });

TEST(BruteForceTest, TripleLoopMatchesNeighborPair) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = GenerateGnp(40, 0.15, &rng);
    EXPECT_EQ(BruteForceTriangles(g), NeighborPairTriangles(g));
    EXPECT_EQ(CountTrianglesReference(g), BruteForceTriangles(g).size());
  }
}

TEST(BruteForceTest, KnownCounts) {
  EXPECT_EQ(CountTrianglesReference(MakeComplete(6)), 20u);  // C(6,3)
  EXPECT_EQ(CountTrianglesReference(MakeStar(10)), 0u);
  EXPECT_EQ(CountTrianglesReference(MakeCycle(3)), 1u);
  EXPECT_EQ(CountTrianglesReference(MakeCycle(4)), 0u);
  EXPECT_EQ(CountTrianglesReference(MakeBowTie(3)), 2u);
}

/// Runs `m` on `og` four ways — serial into a CollectingSink and into a
/// CountingSink, then the parallel engine on 2 threads (listing) and on 8
/// (counting) — and requires each to reproduce the oracle's triangles
/// (`expected`, canonical original IDs) or their count, with the same
/// OpCounts every time.
void ExpectAllExecutorsAgree(const Graph& g, const OrientedGraph& og,
                             Method m,
                             const std::vector<CanonicalTriangle>& expected,
                             const std::string& label) {
  CollectingSink serial_sink;
  const OpCounts serial = RunMethod(m, og, &serial_sink);
  ASSERT_EQ(ToCanonical(og, serial_sink), expected) << label;
  EXPECT_EQ(serial.triangles, static_cast<int64_t>(expected.size()))
      << label;
  CountingSink serial_counter;
  ExpectSameOps(serial, RunMethod(m, og, &serial_counter),
                label + "/serial count");
  EXPECT_EQ(serial_counter.count(), expected.size()) << label;
  ExecPolicy two;
  two.threads = 2;
  CollectingSink parallel_sink;
  ExpectSameOps(serial, RunMethod(m, og, &parallel_sink, two),
                label + "/2 threads");
  EXPECT_EQ(parallel_sink.triangles(), serial_sink.triangles()) << label;
  ExecPolicy eight;
  eight.threads = 8;
  CountingSink parallel_counter;
  ExpectSameOps(serial, RunMethod(m, og, &parallel_counter, eight),
                label + "/8 threads");
  EXPECT_EQ(parallel_counter.count(), expected.size()) << label;
  ASSERT_EQ(CountTrianglesBitset(g), expected.size()) << label;
}

TEST(DifferentialFuzzTest, RandomGraphsRandomOrdersAllAgree) {
  // Randomized differential testing: on each trial draw a random graph,
  // a random method, and a random orientation, and require every executor
  // to agree with two independent oracles.
  Rng rng(20170514);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 5 + rng.NextBounded(60);
    const double p = 0.02 + rng.NextDouble() * 0.3;
    const Graph g = GenerateGnp(n, p, &rng);
    const Method m =
        AllMethods()[rng.NextBounded(AllMethods().size())];
    const Permutation theta =
        UniformPermutation(g.num_nodes(), &rng);
    const OrientedGraph og = Orient(g, theta);
    ExpectAllExecutorsAgree(g, og, m, NeighborPairTriangles(g),
                            "trial " + std::to_string(trial) + " method " +
                                MethodName(m));
  }
  // The degenerate shapes, for every method: no node, no edge, and a
  // clique (every pair checked is a triangle).
  for (const Graph& g : {MakeEmpty(0), MakeEmpty(9), MakeComplete(12)}) {
    const OrientedGraph og =
        Orient(g, UniformPermutation(g.num_nodes(), &rng));
    for (Method m : AllMethods()) {
      ExpectAllExecutorsAgree(g, og, m, NeighborPairTriangles(g),
                              "n=" + std::to_string(g.num_nodes()) + " " +
                                  MethodName(m));
    }
  }
}

TEST(SinkTest, CountingAndCallbackSinks) {
  const Graph g = MakeComplete(5);
  const OrientedGraph og = OrientNamed(g, PermutationKind::kAscending);
  CountingSink counter;
  RunMethod(Method::kT1, og, &counter);
  EXPECT_EQ(counter.count(), 10u);  // C(5,3)
  int calls = 0;
  CallbackSink cb([&](NodeId, NodeId, NodeId) { ++calls; });
  RunMethod(Method::kE1, og, &cb);
  EXPECT_EQ(calls, 10);
}

}  // namespace
}  // namespace trilist
