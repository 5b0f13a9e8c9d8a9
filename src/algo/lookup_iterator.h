#pragma once

#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"  // OpCounts
#include "src/graph/oriented_graph.h"

/// \file lookup_iterator.h
/// The six lookup-based edge iterators L1..L6 (Section 2.3, Table 2).
///
/// Same search patterns as E1..E6, but the local neighbor list of the
/// first-visited node is loaded into a membership structure once, and each
/// remote element is tested with an O(1) probe. Build cost is
/// sum_i X_i = sum_i Y_i = m per run; probe counts are the remote classes:
///
///         L1   L2   L3   L4   L5   L6
///   cost  T2   T1   T2   T3   T3   T1
///
/// Implementation note: because labels are dense integers in [0, n), the
/// membership structure is an epoch-stamped marker array rather than a
/// general hash table — same O(1) probes without rehashing. The family is
/// cost- and speed-equivalent to vertex iterators (Section 2.3), which is
/// why the paper folds LEI into VI after this point; we implement it fully
/// so that equivalence is *tested* rather than assumed.

namespace trilist {

/// L1: hash N+(z); for y in N+(z), probe every w in N+(y).
OpCounts RunL1(const OrientedGraph& g, TriangleSink* sink);
/// L2: hash N+(y); for z in N-(y), probe elements of N+(z) below y.
OpCounts RunL2(const OrientedGraph& g, TriangleSink* sink);
/// L3: hash N-(x); for y in N-(x), probe every w in N-(y).
OpCounts RunL3(const OrientedGraph& g, TriangleSink* sink);
/// L4: hash N+(z); for x in N+(z), probe elements of N-(x) below z.
OpCounts RunL4(const OrientedGraph& g, TriangleSink* sink);
/// L5: hash N-(y); for x in N+(y), probe elements of N-(x) above y.
OpCounts RunL5(const OrientedGraph& g, TriangleSink* sink);
/// L6: hash N-(x); for z in N-(x), probe elements of N+(z) above x.
OpCounts RunL6(const OrientedGraph& g, TriangleSink* sink);

}  // namespace trilist
