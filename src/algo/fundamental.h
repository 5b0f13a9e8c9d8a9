#pragma once

#include <cstddef>

#include "src/algo/cost.h"
#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"  // OpCounts
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file fundamental.h
/// The four fundamental kernels T1, T2, E1, E4 — one representative of
/// each non-isomorphic cost class (Section 2) — written once, as slices
/// of their serial iteration space.
///
/// Each kernel is a loop over an outer iteration space: for every node v
/// in label order, a range of "outer positions" (the pair index b of T1,
/// the in-list index of T2, the arc index of E1/E4). A slice runs the
/// positions in [lo, hi) of that concatenated space, in serial order. The
/// serial kernels (RunT1, RunT2, RunE1, RunE4) are the slice over the
/// whole space; the parallel engine cuts the space into chunks and runs
/// one slice per chunk. Both therefore execute the same loop body, which
/// is what keeps every counter bit-identical across thread counts.
///
/// A slice is templated on the sink and the intersection policy
/// (sei::DirectMerge / sei::EngineIsect), so each combination is its own
/// devirtualized instantiation. A null sink selects the count-only
/// instantiation: no triangle is emitted, and OpCounts::triangles — exact
/// for every slice — is the count.

namespace trilist {

namespace simd {
class IntersectEngine;
}  // namespace simd

/// A boundary in the concatenated outer iteration space: the first
/// (node, outer position) pair of a slice. Cuts with pos > 0 land inside a
/// node's range — that is how the parallel engine splits hub rows.
struct Cut {
  NodeId node = 0;
  size_t pos = 0;
};

/// Length of node v's outer position range under fundamental method m:
/// |N-(v)| for T2, |N+(v)| for T1, E1 and E4.
inline size_t OuterLen(Method m, const OrientedGraph& g, NodeId v) {
  return m == Method::kT2 ? g.InNeighbors(v).size()
                          : g.OutNeighbors(v).size();
}

/// Runs fundamental method `m` over the outer positions [lo, hi).
///  - `arcs` is the directed arc set (required by T1/T2, ignored by E1/E4).
///  - `sink` receives the slice's triangles in serial order; null counts
///    them only.
///  - `engine` (may be null) routes E1/E4 intersections through its
///    backend; null or kMerge selects the direct merge.
OpCounts RunSlice(Method m, const OrientedGraph& g,
                  const DirectedEdgeSet* arcs, Cut lo, Cut hi,
                  TriangleSink* sink, simd::IntersectEngine* engine);

/// Runs `m` over its whole iteration space — the serial kernel. A
/// CountingSink gets the count-only slice and is credited once with the
/// total, as the parallel engine does.
OpCounts RunFundamental(Method m, const OrientedGraph& g,
                        const DirectedEdgeSet* arcs, TriangleSink* sink,
                        simd::IntersectEngine* engine);

}  // namespace trilist
