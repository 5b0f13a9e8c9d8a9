#include "src/algo/registry.h"

#include "src/algo/edge_iterator.h"
#include "src/algo/lookup_iterator.h"
#include "src/algo/parallel_engine.h"
#include "src/algo/simd/intersect_engine.h"

namespace trilist {

namespace {

/// The one dispatch behind both RunMethod overloads (and
/// RunMethodParallel); `arcs` is read by the vertex iterators only.
OpCounts Dispatch(Method m, const OrientedGraph& g,
                  const DirectedEdgeSet* arcs, TriangleSink* sink,
                  const ExecPolicy& exec) {
  const bool sei = MethodFamily(m) == Family::kScanningEdgeIterator;
  // For kBitmap, one index per run (the policy's, or one built here),
  // shared by every arc and every worker.
  ExecPolicy policy = exec;
  if (sei) policy.bitmap_index = simd::EnsureBitmapIndex(exec, g);
  if (policy.threads > 1 && SupportsParallel(m) && g.num_nodes() > 0) {
    return RunFundamentalParallel(m, g, arcs, sink, policy);
  }
  if (sei) {
    simd::IntersectEngine engine(policy.intersect,
                                 policy.bitmap_index.get());
    switch (m) {
      case Method::kE1: return RunE1(g, sink, &engine);
      case Method::kE2: return RunE2(g, sink, &engine);
      case Method::kE3: return RunE3(g, sink, &engine);
      case Method::kE4: return RunE4(g, sink, &engine);
      case Method::kE5: return RunE5(g, sink, &engine);
      case Method::kE6: return RunE6(g, sink, &engine);
      default: break;
    }
  }
  switch (m) {
    case Method::kT1: return RunT1(g, *arcs, sink);
    case Method::kT2: return RunT2(g, *arcs, sink);
    case Method::kT3: return RunT3(g, *arcs, sink);
    case Method::kT4: return RunT4(g, *arcs, sink);
    case Method::kT5: return RunT5(g, *arcs, sink);
    case Method::kT6: return RunT6(g, *arcs, sink);
    case Method::kL1: return RunL1(g, sink);
    case Method::kL2: return RunL2(g, sink);
    case Method::kL3: return RunL3(g, sink);
    case Method::kL4: return RunL4(g, sink);
    case Method::kL5: return RunL5(g, sink);
    case Method::kL6: return RunL6(g, sink);
    default: break;
  }
  return OpCounts{};
}

}  // namespace

OpCounts RunMethod(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet& arcs, TriangleSink* sink,
                   const ExecPolicy& exec) {
  return Dispatch(m, g, &arcs, sink, exec);
}

OpCounts RunMethod(Method m, const OrientedGraph& g, TriangleSink* sink,
                   const ExecPolicy& exec) {
  if (MethodFamily(m) != Family::kVertexIterator) {
    return Dispatch(m, g, nullptr, sink, exec);
  }
  const DirectedEdgeSet arcs(g);
  return Dispatch(m, g, &arcs, sink, exec);
}

}  // namespace trilist
