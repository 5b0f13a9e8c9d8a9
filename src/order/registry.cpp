#include "src/order/registry.h"

#include <cstring>

#include "src/degree/degree_stats.h"
#include "src/order/aot.h"
#include "src/order/degenerate.h"
#include "src/order/split.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace trilist {

Permutation OrderingProvider::PricingPermutation(
    const std::vector<int64_t>& ascending_degrees, uint64_t seed) const {
  Rng rng(seed);
  return MakePermutation(pricing_kind(), ascending_degrees.size(), &rng);
}

std::vector<DegreeRun> OrderingProvider::PricingRuns(
    const std::vector<DegreeRun>& ascending_runs) const {
  return NamedOrderRuns(pricing_kind(), ascending_runs);
}

std::vector<NodeId> OrderingProvider::Labels(const Graph& g,
                                             uint64_t seed) const {
  // Positional default: theta over ascending-degree ranks, the exact
  // math of the historical OrientStages branch (same Rng construction).
  Rng rng(seed);
  return LabelsFromPermutation(
      g, MakePermutation(kind(), g.num_nodes(), &rng));
}

namespace {

struct AscendingProvider final : OrderingProvider {
  PermutationKind kind() const override {
    return PermutationKind::kAscending;
  }
  const char* cli_name() const override { return "A"; }
  const char* description() const override {
    return "ascending degree (theta_A): small degrees get small labels; "
           "optimal for T3/T6, E3/E5, L4/L5";
  }
};

struct DescendingProvider final : OrderingProvider {
  PermutationKind kind() const override {
    return PermutationKind::kDescending;
  }
  const char* cli_name() const override { return "D"; }
  const char* description() const override {
    return "descending degree (theta_D): hubs get the smallest labels; "
           "optimal for T1/T4, E1/E2, L2/L6 (the default)";
  }
};

struct RoundRobinProvider final : OrderingProvider {
  PermutationKind kind() const override {
    return PermutationKind::kRoundRobin;
  }
  const char* cli_name() const override { return "RR"; }
  const char* description() const override {
    return "Round-Robin (theta_RR, Eq. 32): large degrees at both ends; "
           "optimal for T2/T5, L1/L3";
  }
};

struct CrrProvider final : OrderingProvider {
  PermutationKind kind() const override {
    return PermutationKind::kComplementaryRoundRobin;
  }
  const char* cli_name() const override { return "CRR"; }
  const char* description() const override {
    return "Complementary Round-Robin (theta_CRR): large degrees toward "
           "the middle; optimal for E4/E6";
  }
};

struct UniformProvider final : OrderingProvider {
  PermutationKind kind() const override {
    return PermutationKind::kUniform;
  }
  const char* cli_name() const override { return "U"; }
  const char* description() const override {
    return "uniform random bijection (theta_U, seeded): the hashed-ID "
           "baseline every ordering is measured against";
  }
  bool seeded() const override { return true; }
};

struct DegenerateProvider final : OrderingProvider {
  PermutationKind kind() const override {
    return PermutationKind::kDegenerate;
  }
  const char* cli_name() const override { return "degen"; }
  const char* description() const override {
    return "Matula-Beck smallest-last: graph-dependent, minimizes the "
           "max out-degree (priced via the theta_D proxy)";
  }
  bool graph_dependent() const override { return true; }
  PermutationKind pricing_kind() const override {
    // No positional model exists; theta_D is the standard conservative
    // proxy (the smallest-last order is degree-descending-like at the
    // top of the sequence, where the cost mass lives).
    return PermutationKind::kDescending;
  }
  std::vector<NodeId> Labels(const Graph& g,
                             uint64_t /*seed*/) const override {
    return DegenerateLabels(g);
  }
};

struct AotProvider final : OrderingProvider {
  PermutationKind kind() const override { return PermutationKind::kAot; }
  const char* cli_name() const override { return "aot"; }
  const char* description() const override {
    return "AOT hybrid (arXiv 2006.11494): hubs by descending degree, "
           "fringe by smallest-last (priced via the theta_D proxy)";
  }
  bool graph_dependent() const override { return true; }
  PermutationKind pricing_kind() const override {
    // The hub block is exactly theta_D and carries the g(d)h(q) mass;
    // the fringe's smallest-last refinement has no positional model.
    return PermutationKind::kDescending;
  }
  std::vector<NodeId> Labels(const Graph& g,
                             uint64_t /*seed*/) const override {
    return AotLabels(g);
  }
};

struct SplitProvider final : OrderingProvider {
  PermutationKind kind() const override { return PermutationKind::kSplit; }
  const char* cli_name() const override { return "split"; }
  const char* description() const override {
    return "tailored split (arXiv 2203.04774): top-s degree positions as "
           "theta_D, tail as theta_A, s minimizing the Section-3 cost";
  }
  Permutation PricingPermutation(
      const std::vector<int64_t>& ascending_degrees,
      uint64_t /*seed*/) const override {
    return TailoredSplitPermutation(ascending_degrees);
  }
  std::vector<DegreeRun> PricingRuns(
      const std::vector<DegreeRun>& ascending_runs) const override {
    return SplitRuns(ascending_runs, TailoredSplitIndex(ascending_runs));
  }
  std::vector<NodeId> Labels(const Graph& g,
                             uint64_t /*seed*/) const override {
    return LabelsFromPermutation(
        g, TailoredSplitPermutation(AscendingDegrees(g)));
  }
};

const AscendingProvider kAscendingProvider;
const DescendingProvider kDescendingProvider;
const RoundRobinProvider kRoundRobinProvider;
const CrrProvider kCrrProvider;
const UniformProvider kUniformProvider;
const DegenerateProvider kDegenerateProvider;
const AotProvider kAotProvider;
const SplitProvider kSplitProvider;

}  // namespace

OrderingRegistry::OrderingRegistry()
    : all_{&kAscendingProvider,  &kDescendingProvider,
           &kRoundRobinProvider, &kCrrProvider,
           &kUniformProvider,    &kDegenerateProvider,
           &kAotProvider,        &kSplitProvider} {}

const OrderingRegistry& OrderingRegistry::Instance() {
  static const OrderingRegistry registry;
  return registry;
}

const OrderingProvider& OrderingRegistry::Of(PermutationKind kind) const {
  for (const OrderingProvider* p : all_) {
    if (p->kind() == kind) return *p;
  }
  TRILIST_DCHECK(false);
  return *all_.front();
}

const OrderingProvider* OrderingRegistry::FindByName(
    const std::string& name) const {
  for (const OrderingProvider* p : all_) {
    if (name == p->cli_name() || name == p->key()) return p;
  }
  return nullptr;
}

std::vector<NodeId> OrderingLabels(const Graph& g, const OrientSpec& spec) {
  return OrderingRegistry::Instance().Of(spec.kind).Labels(g, spec.seed);
}

}  // namespace trilist
