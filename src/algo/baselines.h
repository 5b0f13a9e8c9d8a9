#pragma once

#include "src/algo/fundamental.h"  // OpCounts
#include "src/algo/triangle_sink.h"
#include "src/graph/graph.h"
#include "src/graph/oriented_graph.h"

/// \file baselines.h
/// Prior-work baselines and the degraded preprocessing variants discussed
/// in Section 2.4. These quantify what the three-step framework buys:
///
///  * the classic (orientation-free) vertex iterator pays
///    sum_i C(d_i, 2) candidate checks — 3x the uniform-permutation cost
///    and vastly more than theta_D;
///  * orientation *without relabeling* leaves out-lists unordered relative
///    to each other, doubling every T1/T3-class term (candidates become
///    ordered pairs instead of unordered);
///  * Forward [Schank-Wagner] and Compact Forward [Latapy] are the
///    literature's E2/E1 analogues and serve as independent
///    implementations for cross-validation.

namespace trilist {

/// Classic vertex iterator on the undirected graph: for every node, check
/// every unordered neighbor pair. Emits each triangle once (at its
/// smallest vertex) but pays candidate checks at every corner:
/// candidate_checks == sum_i C(d_i, 2).
OpCounts RunClassicVertexIterator(const Graph& g, TriangleSink* sink);

/// T1 with orientation but *no relabeling* (Section 2.4): neighbor lists
/// carry no usable mutual order, so all ordered out-pairs are generated;
/// candidate_checks == sum_i X_i(X_i - 1), exactly twice T1.
OpCounts RunT1NoRelabel(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                        TriangleSink* sink);

/// E1 with orientation but no relabeling: the local scan cannot stop at y
/// and traverses all of N+(z); local_scans doubles to sum_i X_i(X_i - 1)
/// while remote_scans stays sum_i X_i Y_i.
OpCounts RunE1NoRelabel(const OrientedGraph& g, TriangleSink* sink);

/// Forward algorithm (Schank & Wagner 2005): descending-degree order with
/// dynamically growing adjacency prefixes; an E2-pattern equivalent.
/// Emits triangles in label space of the induced descending order.
OpCounts RunForward(const Graph& g, TriangleSink* sink);

/// Compact Forward (Latapy 2008): the array-based refinement of Forward;
/// an E1/E2-pattern equivalent on fully preprocessed lists.
OpCounts RunCompactForward(const Graph& g, TriangleSink* sink);

}  // namespace trilist
