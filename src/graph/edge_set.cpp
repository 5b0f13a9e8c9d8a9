#include "src/graph/edge_set.h"

#include <bit>

namespace trilist {

DirectedEdgeSet::DirectedEdgeSet(const OrientedGraph& g)
    : offsets_(g.num_nodes() + 1, 0), size_(g.num_arcs()) {
  const size_t n = g.num_nodes();
  for (size_t i = 0; i < n; ++i) {
    const auto d = static_cast<size_t>(g.OutDegree(static_cast<NodeId>(i)));
    offsets_[i + 1] = offsets_[i] + (d == 0 ? 0 : std::bit_ceil(2 * d));
  }
  slots_.assign(offsets_[n], kEmpty);
  for (size_t i = 0; i < n; ++i) {
    const auto from = static_cast<NodeId>(i);
    const size_t cap = offsets_[i + 1] - offsets_[i];
    NodeId* row = slots_.data() + offsets_[i];
    for (NodeId to : g.OutNeighbors(from)) {
      TRILIST_DCHECK(to != kEmpty);
      size_t s = Home(to, cap);
      while (row[s] != kEmpty) s = (s + 1) & (cap - 1);
      row[s] = to;
    }
  }
}

}  // namespace trilist
