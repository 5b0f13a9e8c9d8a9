#pragma once

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/algo/triangle_sink.h"
#include "src/algo/fundamental.h"  // OpCounts
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file parallel_engine.h
/// Multi-threaded executor for all 18 methods.
///
/// ## Partitioning
/// The kernels are the slices of fundamental.h: loops over an outer
/// iteration space of (node, outer position) pairs. The planner assigns
/// each position its paper-cost weight (PositionWeight: the local list
/// for a vertex iterator, local + remote for a scanning edge iterator, the
/// remote list for a lookup edge iterator) and cuts the concatenated
/// position space into chunks of (approximately) equal total weight.
/// Cuts may land *inside* a node's range: a Pareto hub whose quadratic
/// work exceeds a chunk budget is split across as many chunks (and hence
/// workers) as its weight demands, so no single vertex can serialize the
/// run. Chunks are claimed dynamically from the pool's atomic counter,
/// and each runs the same slice kernel the serial engine runs. The lookup
/// edge iterators' markers are per worker: a chunk borrows a free one, so
/// at most `threads` exist and none is cleared between chunks.
///
/// ## Determinism
/// Chunks are contiguous slices of the *serial* iteration order and each
/// accumulates its own OpCounts, so every counter is an exact integer sum
/// over a partition of the serial iteration space: bit-identical to the
/// serial run for every thread count, including 1. How triangles reach
/// the sink depends on the sink:
///  - A CountingSink only needs the total. Chunks run the count-only
///    instantiation, reduce to their OpCounts, and the sink is credited
///    once with the exact total. No triangle is stored, so memory stays
///    at the serial level whatever the triangle count.
///  - Any other sink (CollectingSink, CallbackSink, ...) may depend on
///    emission order. Each chunk buffers its triangles, and the merge
///    replays the chunks in index order, so the sink sees exactly the
///    serial sequence.
///
/// Every run on one thread takes the serial engine.

namespace trilist {

/// Runs `m` under `policy`; the same call as RunMethod (registry.h),
/// whose one dispatch runs the chunked executor below whenever
/// policy.threads > 1.
OpCounts RunMethodParallel(Method m, const OrientedGraph& g,
                           const DirectedEdgeSet& arcs, TriangleSink* sink,
                           const ExecPolicy& policy);

/// The chunked executor: runs `m` on policy.threads workers, whatever that
/// count. `arcs` is read by T1..T6 only and may be null for the other
/// methods. A set policy.bitmap_index puts its hub shortcut in front of
/// the E1..E6 merges; RunMethod sets it under kBitmap only.
OpCounts RunParallel(Method m, const OrientedGraph& g,
                     const DirectedEdgeSet* arcs, TriangleSink* sink,
                     const ExecPolicy& policy);

}  // namespace trilist
