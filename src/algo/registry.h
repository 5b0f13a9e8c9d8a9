#pragma once

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/algo/fundamental.h"  // OpCounts
#include "src/algo/triangle_sink.h"
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file registry.h
/// Uniform dispatch over the 18 listing methods, so sweeps ("run every
/// method under every permutation") are one loop in callers. Every
/// listing — serial, parallel, any backend — goes through one dispatch.

namespace trilist {

/// Runs `m` on the oriented graph under an execution policy, reusing a
/// caller-provided arc set for vertex iterators (the set is ignored by
/// the other families).
///  - With exec.threads > 1 every method runs on the parallel engine (see
///    parallel_engine.h), which reports bit-identical triangles and
///    counters to the serial run.
///  - The scanning edge iterators merge; under kBitmap the policy's hub
///    index (or one built for this run) takes the hub positions first.
OpCounts RunMethod(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet& arcs, TriangleSink* sink,
                   const ExecPolicy& exec = {});

/// Same, building the directed-arc hash set internally when the method
/// is a vertex iterator.
OpCounts RunMethod(Method m, const OrientedGraph& g, TriangleSink* sink,
                   const ExecPolicy& exec = {});

}  // namespace trilist
