#pragma once

#include "src/algo/cost.h"
#include "src/algo/triangle_sink.h"
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file vertex_iterator.h
/// The six vertex-iterator search patterns T1..T6 (Section 2.2, Figure 1).
///
/// Each pattern fixes which corner of the triangle x < y < z is visited
/// first and in which order the remaining two are generated; candidate arcs
/// are verified against the directed edge set. Per-node candidate counts:
///   T1/T4: C(X_i, 2)   (start at z, pair out-neighbors)
///   T2/T5: X_i * Y_i   (start at y, pair in x out)
///   T3/T6: C(Y_i, 2)   (start at x, pair in-neighbors)
/// T4-T6 differ from T1-T3 only in the visiting order of the last two
/// nodes; their costs are identical (the equivalence classes of Figure 2).
///
/// T1 and T2 are fundamental: they run the slice kernels of fundamental.h
/// over the whole iteration space.

namespace trilist {

/// Operation counters for one algorithm execution. The same struct is
/// shared by all three families; fields irrelevant to a family stay zero.
struct OpCounts {
  int64_t candidate_checks = 0;   ///< vertex iterators: arc-set probes.
  int64_t local_scans = 0;        ///< SEI: paper-metric local elements.
  int64_t remote_scans = 0;       ///< SEI: paper-metric remote elements.
  int64_t merge_comparisons = 0;  ///< SEI: actual two-pointer comparisons.
  int64_t hash_inserts = 0;       ///< LEI: marker/table build operations.
  int64_t lookups = 0;            ///< LEI: membership probes.
  int64_t binary_searches = 0;    ///< E5/E6/L5/L6 range positioning.
  int64_t triangles = 0;          ///< triangles emitted.

  /// The cost metric the paper's tables report for this run:
  /// candidate checks (vertex iterators), local+remote scans (SEI), or
  /// lookups (LEI).
  int64_t PaperCost() const {
    if (candidate_checks > 0) return candidate_checks;
    if (local_scans + remote_scans > 0) return local_scans + remote_scans;
    return lookups;
  }
};

/// T1: visit z, generate pairs x < y from N+(z), verify arc y -> x.
OpCounts RunT1(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink);
/// T2: visit y, pair z in N-(y) with x in N+(y), verify arc z -> x.
OpCounts RunT2(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink);
/// T3: visit x, generate pairs y < z from N-(x), verify arc z -> y.
OpCounts RunT3(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink);
/// T4: as T1 with the pair loop inverted (x outer, y inner).
OpCounts RunT4(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink);
/// T5: as T2 with the loops swapped (x outer, z inner).
OpCounts RunT5(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink);
/// T6: as T3 with the pair loop inverted (z outer, y inner).
OpCounts RunT6(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink);

}  // namespace trilist
