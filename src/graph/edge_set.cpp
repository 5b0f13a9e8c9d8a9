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
  // The pad keeps the kGroup-slot load of a last row narrower than kGroup
  // inside the array.
  slots_.assign(offsets_[n] == 0 ? 0 : offsets_[n] + kGroup - 1, kEmpty);
  for (size_t i = 0; i < n; ++i) {
    const size_t cap = offsets_[i + 1] - offsets_[i];
    NodeId* row = slots_.data() + offsets_[i];
    const uint32_t lanes = LaneMask(cap);
    for (NodeId to : g.OutNeighbors(static_cast<NodeId>(i))) {
      TRILIST_DCHECK(to != kEmpty);
      // A free home slot takes the target after one scalar load. Only
      // the group is fixed by the lookup rule, not the slot inside it;
      // a group compare on every insert built the G(1000, 1/2) index in
      // 1.3-1.5 ms instead of 0.5-0.9 ms.
      const size_t home = Home(to, cap);
      if (row[home] == kEmpty) {
        row[home] = to;
        continue;
      }
      size_t grp = GroupOf(home, cap);
      uint32_t empty;
      while ((empty = Compare(row + grp, kEmpty).empty & lanes) == 0) {
        grp = (grp + kGroup) & (cap - 1);
      }
      row[grp + std::countr_zero(empty) / 4] = to;
    }
  }
}

}  // namespace trilist
