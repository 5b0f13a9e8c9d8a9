#include "src/sim/cost_measurement.h"

#include "src/graph/oriented_graph.h"
#include "src/order/pipeline.h"

namespace trilist {

std::vector<double> MeasurePerNodeCosts(const Graph& g,
                                        const std::vector<Method>& methods,
                                        PermutationKind kind, Rng* rng) {
  const OrientedGraph og = OrientNamed(g, kind, rng);
  const double n = static_cast<double>(g.num_nodes());
  std::vector<double> costs;
  costs.reserve(methods.size());
  for (Method m : methods) {
    costs.push_back(n == 0 ? 0.0 : MethodCostTotal(og, m) / n);
  }
  return costs;
}

double MeasurePerNodeCost(const Graph& g, Method m, PermutationKind kind,
                          Rng* rng) {
  return MeasurePerNodeCosts(g, {m}, kind, rng)[0];
}

}  // namespace trilist
