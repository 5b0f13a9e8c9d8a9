#pragma once

#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"  // OpCounts
#include "src/graph/oriented_graph.h"

/// \file edge_iterator.h
/// The six scanning edge iterators E1..E6 (Section 2.3, Figure 3).
///
/// Each traverses every arc and merge-intersects two sorted neighbor
/// ranges. Cost splits into *local* (the first-visited node's list) and
/// *remote* (the other endpoint's list); Table 1 gives the class of each:
///
///          E1   E2   E3   E4   E5   E6
///   local  T1   T2   T3   T1   T2   T3
///   remote T2   T1   T2   T3   T3   T1
///
/// The OpCounts fields local_scans / remote_scans reproduce the paper's
/// accounting exactly (every element of each intersected range counts
/// once); merge_comparisons tracks what the two-pointer loop actually
/// executed, which is at most local + remote. E5 and E6 additionally need
/// one binary search per arc to locate the start of the remote suffix,
/// recorded in binary_searches — the structural disadvantage that removes
/// them from contention (Section 2.3).
///
/// Each method takes an optional simd::IntersectEngine, which routes
/// every intersection through the engine's selected backend (vectorized
/// merge or hub bitmaps — see intersect_engine.h). A null
/// engine — the default — or one configured for the merge backend selects
/// the direct-merge instantiation. Triangles and emission order are
/// identical for every backend.
///
/// E1 and E4 are fundamental: they run the slice kernels of fundamental.h
/// over the whole iteration space.

namespace trilist {

namespace simd {
class IntersectEngine;
}  // namespace simd

/// E1: visit z; for y in N+(z), intersect N+(z) below y with N+(y).
OpCounts RunE1(const OrientedGraph& g, TriangleSink* sink,
               simd::IntersectEngine* engine = nullptr);
/// E2: visit y; for z in N-(y), intersect N+(y) with N+(z) below y.
OpCounts RunE2(const OrientedGraph& g, TriangleSink* sink,
               simd::IntersectEngine* engine = nullptr);
/// E3: visit x; for y in N-(x), intersect N-(x) above y with N-(y).
OpCounts RunE3(const OrientedGraph& g, TriangleSink* sink,
               simd::IntersectEngine* engine = nullptr);
/// E4: visit z; for x in N+(z), intersect N+(z) above x with N-(x) below z.
OpCounts RunE4(const OrientedGraph& g, TriangleSink* sink,
               simd::IntersectEngine* engine = nullptr);
/// E5: visit y; for x in N+(y), intersect N-(y) with N-(x) above y.
OpCounts RunE5(const OrientedGraph& g, TriangleSink* sink,
               simd::IntersectEngine* engine = nullptr);
/// E6: visit x; for z in N-(x), intersect N-(x) below z with N+(z) above x.
OpCounts RunE6(const OrientedGraph& g, TriangleSink* sink,
               simd::IntersectEngine* engine = nullptr);

}  // namespace trilist
