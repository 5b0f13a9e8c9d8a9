#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/order/named_orders.h"
#include "src/order/permutation.h"
#include "src/order/pipeline.h"

/// \file registry.h
/// The ordering registry: one uniform OrderingProvider per
/// PermutationKind, covering the paper's five positional families
/// (theta_A/D/RR/CRR/U), the graph-dependent degenerate and AOT hybrid
/// orders, and the degree-tailored split order. Everything that needs to
/// enumerate, parse, build or *price* an ordering — OrientStages, the
/// cost model, the planner, `trilist_cli orders` — goes through this
/// table, so adding an ordering is one provider, not a scatter of switch
/// arms.
///
/// Two capabilities matter downstream:
///   - Labels(g, seed): the per-node label map that orients a realized
///     graph. Defined for every provider.
///   - PricingPermutation(A_n, seed): the positional theta the Section-3
///     model prices. Exact when positional() is true (the permutation is
///     a pure function of the degree sequence); a theta_D proxy for the
///     graph-dependent orders (degenerate, AOT), whose true label map
///     needs adjacency structure the model never sees. PricingRuns is
///     the same theta as label-order degree runs, for every non-seeded
///     provider.

namespace trilist {

/// \brief One registered ordering: identity, capabilities, construction.
class OrderingProvider {
 public:
  virtual ~OrderingProvider() = default;

  /// The enum value this provider realizes.
  virtual PermutationKind kind() const = 0;

  /// Stable registry key, identical to PermutationKindName(kind()).
  const char* key() const { return PermutationKindName(kind()); }

  /// Short CLI spelling ("D", "RR", "degen", "aot", "split", ...).
  virtual const char* cli_name() const = 0;

  /// One-line description for `trilist_cli orders`.
  virtual const char* description() const = 0;

  /// Needs the realized adjacency structure (degenerate, AOT) — cannot
  /// be built, or priced exactly, from the degree sequence alone.
  virtual bool graph_dependent() const { return false; }

  /// Consumes OrientSpec::seed (theta_U only).
  virtual bool seeded() const { return false; }

  /// The Section-3 model prices this ordering exactly: its positional
  /// permutation is a pure function of the (ascending) degree sequence.
  bool positional() const { return !graph_dependent(); }

  /// The kind whose positional permutation the cost model prices:
  /// kind() itself when positional(); theta_D for the graph-dependent
  /// orders (documented per provider). Orders sharing a pricing kind
  /// share one pricing pass in the cost model.
  virtual PermutationKind pricing_kind() const { return kind(); }

  /// The positional permutation the cost model prices, of size
  /// ascending_degrees.size(): the pricing_kind()'s named permutation
  /// unless overridden (the tailored split).
  virtual Permutation PricingPermutation(
      const std::vector<int64_t>& ascending_degrees, uint64_t seed) const;

  /// The label-order degree runs of PricingPermutation, built from
  /// CompressRuns(A_n) in O(distinct degrees) — what the cost model
  /// prices for every non-seeded provider: the pricing_kind()'s
  /// NamedOrderRuns unless overridden (the tailored split). Seeded
  /// orders (theta_U) have no segment shape and are priced through
  /// PricingPermutation instead.
  virtual std::vector<DegreeRun> PricingRuns(
      const std::vector<DegreeRun>& ascending_runs) const;

  /// Per-node labels on a realized graph — the orientation input.
  /// Deterministic given (g, seed); seed is consulted iff seeded().
  virtual std::vector<NodeId> Labels(const Graph& g, uint64_t seed) const;
};

/// \brief The process-wide table of ordering providers.
class OrderingRegistry {
 public:
  /// The singleton instance (immutable after construction).
  static const OrderingRegistry& Instance();

  /// All providers, in PermutationKind declaration order.
  const std::vector<const OrderingProvider*>& all() const { return all_; }

  /// Provider of a kind (total: every enum value is registered).
  const OrderingProvider& Of(PermutationKind kind) const;

  /// Lookup by CLI spelling or registry key ("D" and "theta_D" both
  /// resolve); null when unknown.
  const OrderingProvider* FindByName(const std::string& name) const;

 private:
  OrderingRegistry();
  std::vector<const OrderingProvider*> all_;
};

/// Labels for `spec` on a realized graph, routed through the registry —
/// the single construction path shared by OrientStages, OrientNamed and
/// the serve catalog. Bit-identical to the historical per-kind branches.
std::vector<NodeId> OrderingLabels(const Graph& g, const OrientSpec& spec);

}  // namespace trilist
