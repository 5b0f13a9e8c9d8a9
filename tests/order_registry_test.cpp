#include "src/order/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/algo/cost.h"
#include "src/core/out_degree_model.h"
#include "src/degree/pareto.h"
#include "src/degree/truncated.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/binfmt.h"
#include "src/graph/builder.h"
#include "src/order/aot.h"
#include "src/order/named_orders.h"
#include "src/order/split.h"
#include "src/serve/catalog.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

/// Every kind the enum declares, in declaration order.
const std::vector<PermutationKind> kAllKinds = {
    PermutationKind::kAscending,
    PermutationKind::kDescending,
    PermutationKind::kRoundRobin,
    PermutationKind::kComplementaryRoundRobin,
    PermutationKind::kUniform,
    PermutationKind::kDegenerate,
    PermutationKind::kAot,
    PermutationKind::kSplit,
};

TEST(OrderingRegistryTest, EveryKindRegisteredInDeclarationOrder) {
  const OrderingRegistry& reg = OrderingRegistry::Instance();
  ASSERT_EQ(reg.all().size(), kAllKinds.size());
  for (size_t i = 0; i < kAllKinds.size(); ++i) {
    const OrderingProvider* p = reg.all()[i];
    EXPECT_EQ(p->kind(), kAllKinds[i]);
    EXPECT_STREQ(p->key(), PermutationKindName(kAllKinds[i]));
    EXPECT_EQ(&reg.Of(kAllKinds[i]), p);
  }
}

TEST(OrderingRegistryTest, LookupByCliNameAndKey) {
  const OrderingRegistry& reg = OrderingRegistry::Instance();
  for (const OrderingProvider* p : reg.all()) {
    EXPECT_EQ(reg.FindByName(p->cli_name()), p) << p->cli_name();
    EXPECT_EQ(reg.FindByName(p->key()), p) << p->key();
  }
  EXPECT_EQ(reg.FindByName("no-such-order"), nullptr);
  EXPECT_EQ(reg.FindByName(""), nullptr);
}

TEST(OrderingRegistryTest, CapabilityFlags) {
  const OrderingRegistry& reg = OrderingRegistry::Instance();
  for (const OrderingProvider* p : reg.all()) {
    const bool dependent = p->kind() == PermutationKind::kDegenerate ||
                           p->kind() == PermutationKind::kAot;
    EXPECT_EQ(p->graph_dependent(), dependent) << p->key();
    EXPECT_EQ(p->positional(), !dependent) << p->key();
    EXPECT_EQ(p->seeded(), p->kind() == PermutationKind::kUniform)
        << p->key();
  }
}

TEST(OrderingRegistryTest, LabelsAreBijectionsOnEveryProvider) {
  Rng rng(13);
  const Graph g = GenerateGnp(120, 0.06, &rng);
  const OrderingRegistry& reg = OrderingRegistry::Instance();
  for (const OrderingProvider* p : reg.all()) {
    const std::vector<NodeId> labels = p->Labels(g, /*seed=*/5);
    ASSERT_EQ(labels.size(), g.num_nodes()) << p->key();
    std::vector<bool> seen(g.num_nodes(), false);
    for (const NodeId l : labels) {
      ASSERT_LT(l, g.num_nodes()) << p->key();
      EXPECT_FALSE(seen[l]) << p->key();
      seen[l] = true;
    }
  }
}

TEST(AotOrderTest, HubsTakeTheSmallestLabels) {
  // A star within an otherwise sparse graph: the center is the only node
  // above the automatic hub threshold, so it must receive label 0.
  const Graph g = MakeStar(50);
  const int64_t tau = AotAutoHubThreshold(g);
  EXPECT_GE(tau, 16);
  const std::vector<NodeId> labels = AotLabels(g);
  NodeId center = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    if (g.Degree(v) > g.Degree(center)) center = v;
  }
  EXPECT_EQ(labels[center], 0u);
}

TEST(AotOrderTest, RegistryLabelsMatchDirectConstruction) {
  Rng rng(17);
  const Graph g = GenerateGnp(90, 0.08, &rng);
  const std::vector<NodeId> direct = AotLabels(g);
  const std::vector<NodeId> via_registry =
      OrderingRegistry::Instance().Of(PermutationKind::kAot).Labels(g, 0);
  EXPECT_EQ(direct, via_registry);
}

TEST(SplitOrderTest, EndpointsAreThePureDegreeOrders) {
  for (const size_t n : {1u, 2u, 7u, 64u}) {
    const Permutation as_a = SplitPermutation(n, 0);
    const Permutation as_d = SplitPermutation(n, n);
    const Permutation a = AscendingPermutation(n);
    const Permutation d = DescendingPermutation(n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(as_a(i), a(i)) << "n=" << n << " i=" << i;
      EXPECT_EQ(as_d(i), d(i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SplitOrderTest, MidSplitsAreValidAndMatchTheFormula) {
  const size_t n = 33;
  for (const size_t s : {1u, 5u, 16u, 32u}) {
    const Permutation theta = SplitPermutation(n, s);
    ASSERT_TRUE(theta.IsValid()) << s;
    for (size_t i = 0; i < n; ++i) {
      const size_t expected = i < n - s ? s + i : n - 1 - i;
      EXPECT_EQ(theta(i), expected) << "s=" << s << " i=" << i;
    }
  }
}

TEST(SplitOrderTest, TailoredSplitNeverLosesToPureDegreeOrders) {
  // The tailored index minimizes the best-fundamental-method cost over a
  // grid that includes s = 0 (theta_A) and s = n (theta_D), so it can
  // never price worse than either endpoint.
  std::vector<int64_t> degrees;
  for (size_t i = 0; i < 200; ++i) {
    degrees.push_back(1 + static_cast<int64_t>(i * i / 150));  // skewed
  }
  std::sort(degrees.begin(), degrees.end());
  const auto best_cost = [&](const Permutation& theta) {
    double best = std::numeric_limits<double>::infinity();
    for (const Method m : FundamentalMethods()) {
      best = std::min(best, SequenceConditionalCost(degrees, theta, m));
    }
    return best;
  };
  const double split = best_cost(TailoredSplitPermutation(degrees));
  const double pure_a = best_cost(AscendingPermutation(degrees.size()));
  const double pure_d = best_cost(DescendingPermutation(degrees.size()));
  EXPECT_LE(split, pure_a);
  EXPECT_LE(split, pure_d);
}

TEST(SplitOrderTest, TailoredSplitIsTheGridArgmin) {
  // Brute force over the same geometric grid {0, 1, 2, 4, ..., n}: price
  // every fundamental method on its own and keep the first minimum.
  const auto brute_force = [](const std::vector<int64_t>& degrees) {
    const size_t n = degrees.size();
    if (n == 0) return size_t{0};
    std::vector<size_t> grid{0};
    for (size_t s = 1; s < n; s *= 2) grid.push_back(s);
    grid.push_back(n);
    size_t best_s = 0;
    double best = std::numeric_limits<double>::infinity();
    for (const size_t s : grid) {
      for (const Method m : FundamentalMethods()) {
        const double cost =
            SequenceConditionalCost(degrees, SplitPermutation(n, s), m);
        if (cost < best) {
          best = cost;
          best_s = s;
        }
      }
    }
    return best_s;
  };
  Rng rng(5);
  const DiscretePareto base(1.5, 15.0);
  const TruncatedDistribution pareto(base, 300);
  std::vector<int64_t> skewed(1500);
  for (auto& d : skewed) d = pareto.Sample(&rng);
  std::sort(skewed.begin(), skewed.end());
  const std::vector<std::vector<int64_t>> sequences = {
      {}, {3}, std::vector<int64_t>(100, 6), skewed};
  for (const std::vector<int64_t>& degrees : sequences) {
    EXPECT_EQ(TailoredSplitIndex(degrees), brute_force(degrees))
        << "n=" << degrees.size();
  }
}

TEST(OrientSpecTest, KeySeparatesExactlyTheDistinctSpecs) {
  // Equal specs have equal keys; distinct specs have distinct keys. The
  // seed is part of the identity only for theta_U.
  const OrientSpec u1{PermutationKind::kUniform, 1};
  const OrientSpec u2{PermutationKind::kUniform, 2};
  EXPECT_FALSE(u1 == u2);
  EXPECT_NE(u1.Key(), u2.Key());

  const OrientSpec d1{PermutationKind::kDescending, 1};
  const OrientSpec d2{PermutationKind::kDescending, 2};
  EXPECT_TRUE(d1 == d2);
  EXPECT_EQ(d1.Key(), d2.Key());

  const OrientSpec aot{PermutationKind::kAot, 0};
  const OrientSpec split{PermutationKind::kSplit, 0};
  EXPECT_FALSE(aot == split);
  EXPECT_NE(aot.Key(), split.Key());
}

bool SameOrientation(const OrientedGraph& a, const OrientedGraph& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (NodeId v = 0; v < static_cast<NodeId>(a.num_nodes()); ++v) {
    if (a.OutDegree(v) != b.OutDegree(v)) return false;
    const auto an = a.OutNeighbors(v);
    const auto bn = b.OutNeighbors(v);
    if (!std::equal(an.begin(), an.end(), bn.begin(), bn.end())) {
      return false;
    }
  }
  return true;
}

TEST(OrientationCacheTest, TlgRoundTripsTheNewOrders) {
  Rng rng(23);
  const Graph g = GenerateGnp(80, 0.1, &rng);
  const std::vector<OrientSpec> specs = {
      {PermutationKind::kDescending, 0},
      {PermutationKind::kAot, 0},
      {PermutationKind::kSplit, 0},
  };
  const std::string path =
      ::testing::TempDir() + "/registry_orders.tlg";
  TlgWriteOptions opts;
  opts.orientations = specs;
  ASSERT_TRUE(WriteTlgFile(g, path, opts).ok());

  Result<TlgFile> t = TlgFile::Open(path);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  for (const OrientSpec& spec : specs) {
    const OrientedGraph* cached = t.ValueOrDie().FindOrientation(spec);
    ASSERT_NE(cached, nullptr) << spec.Key();
    EXPECT_TRUE(SameOrientation(*cached, OrientWithSpec(g, spec)))
        << spec.Key();
  }
  // Distinct orderings must not alias each other's cached CSR.
  const OrientedGraph* d =
      t.ValueOrDie().FindOrientation({PermutationKind::kDescending, 0});
  const OrientedGraph* aot =
      t.ValueOrDie().FindOrientation({PermutationKind::kAot, 0});
  ASSERT_NE(d, nullptr);
  ASSERT_NE(aot, nullptr);
  EXPECT_NE(d, aot);
  std::remove(path.c_str());
}

TEST(OrientationCacheTest, CatalogKeysBuildsPerDistinctOrdering) {
  // Four distinct orderings -> four builds; re-asking for any of them is
  // a hit, never a rebuild under a colliding key.
  const std::string path = ::testing::TempDir() + "/catalog_orders.txt";
  {
    std::ofstream out(path);
    const Graph g = MakeComplete(6);
    for (const Edge& e : g.EdgeList()) {
      out << e.first << " " << e.second << "\n";
    }
  }
  serve::CatalogOptions options;
  options.named["g"] = path;
  serve::GraphCatalog catalog(options);
  serve::ErrorCode code;
  auto acquired = catalog.Acquire("g", &code);
  ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
  const auto entry = acquired.ValueOrDie().entry;

  const std::vector<OrientSpec> specs = {
      {PermutationKind::kDescending, 0},
      {PermutationKind::kAot, 0},
      {PermutationKind::kSplit, 0},
      {PermutationKind::kUniform, 1},
      {PermutationKind::kUniform, 2},  // distinct seed = distinct ordering
  };
  for (const OrientSpec& spec : specs) {
    EXPECT_FALSE(catalog.Orient(entry, spec, 1).cached) << spec.Key();
  }
  for (const OrientSpec& spec : specs) {
    EXPECT_TRUE(catalog.Orient(entry, spec, 1).cached) << spec.Key();
  }
  const serve::CatalogStats stats = catalog.StatsSnapshot();
  EXPECT_EQ(stats.orientations_built, specs.size());
  EXPECT_EQ(stats.orientation_hits, specs.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace trilist
