#pragma once

#include "src/algo/cost.h"
#include "src/algo/exec_policy.h"
#include "src/algo/triangle_sink.h"
#include "src/algo/vertex_iterator.h"  // OpCounts
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file parallel_engine.h
/// Multi-threaded drivers for the four fundamental cost classes T1, T2,
/// E1, E4 (the paper's non-isomorphic representatives, Section 2).
///
/// ## Partitioning
/// The kernels are the slices of fundamental.h: loops over an outer
/// iteration space of (node, outer position) pairs. The planner assigns
/// each position its paper-cost weight — pairs below it for T1, X_v for
/// T2, local + remote list lengths for E1/E4 — and cuts the concatenated
/// position space into chunks of (approximately) equal total weight.
/// Cuts may land *inside* a node's range: a Pareto hub whose quadratic
/// work exceeds a chunk budget is split across as many chunks (and hence
/// workers) as its weight demands, so no single vertex can serialize the
/// run. Chunks are claimed dynamically from the pool's atomic counter,
/// and each runs the same slice kernel the serial engine runs.
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
/// Methods outside {T1, T2, E1, E4}, and every run on one thread, take
/// the serial engine.

namespace trilist {

/// True for the methods with a parallel driver (T1, T2, E1, E4).
bool SupportsParallel(Method m);

/// Runs `m` under `policy`; the same call as RunMethod (registry.h),
/// whose one dispatch runs the chunked driver below whenever
/// policy.threads > 1 and `m` has one.
OpCounts RunMethodParallel(Method m, const OrientedGraph& g,
                           const DirectedEdgeSet& arcs, TriangleSink* sink,
                           const ExecPolicy& policy);

/// The chunked driver: runs fundamental method `m` (SupportsParallel) on
/// policy.threads workers, whatever that count. `arcs` is read by T1/T2
/// only and may be null for E1/E4; kBitmap reads policy.bitmap_index
/// (RunMethod supplies it) and merges every span without one.
OpCounts RunFundamentalParallel(Method m, const OrientedGraph& g,
                                const DirectedEdgeSet* arcs,
                                TriangleSink* sink,
                                const ExecPolicy& policy);

}  // namespace trilist
