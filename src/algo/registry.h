#pragma once

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file registry.h
/// Uniform dispatch over the 18 listing methods, so sweeps ("run every
/// method under every permutation") are one loop in callers.

namespace trilist {

/// Runs `m` on the oriented graph, building the directed-arc hash set
/// internally when the method is a vertex iterator.
OpCounts RunMethod(Method m, const OrientedGraph& g, TriangleSink* sink);

/// Same, but reuses a caller-provided arc set for vertex iterators (the
/// set is ignored by the other families).
OpCounts RunMethod(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet& arcs, TriangleSink* sink);

/// Runs `m` under an execution policy. With exec.threads > 1 the four
/// fundamental methods (T1, T2, E1, E4) dispatch to the parallel engine
/// (see parallel_engine.h), which reports bit-identical triangles and
/// counters to the serial run; every other method runs serial.
OpCounts RunMethod(Method m, const OrientedGraph& g, TriangleSink* sink,
                   const ExecPolicy& exec);

/// Policy variant reusing a caller-provided arc set.
OpCounts RunMethod(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet& arcs, TriangleSink* sink,
                   const ExecPolicy& exec);

}  // namespace trilist
