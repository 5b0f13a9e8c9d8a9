#include "src/algo/registry.h"

#include "src/algo/fundamental.h"
#include "src/algo/parallel_engine.h"
#include "src/algo/simd/intersect_engine.h"

namespace trilist {

namespace {

/// The one dispatch behind both RunMethod overloads (and
/// RunMethodParallel); `arcs` is read by the vertex iterators only.
OpCounts Dispatch(Method m, const OrientedGraph& g,
                  const DirectedEdgeSet* arcs, TriangleSink* sink,
                  const ExecPolicy& exec) {
  // For kBitmap, one index per run (the policy's, or one built here),
  // shared by every arc and every worker.
  ExecPolicy policy = exec;
  if (MethodFamily(m) == Family::kScanningEdgeIterator) {
    policy.bitmap_index = simd::EnsureBitmapIndex(exec, g);
  }
  if (policy.threads > 1 && g.num_nodes() > 0) {
    return RunParallel(m, g, arcs, sink, policy);
  }
  simd::IntersectEngine engine(policy.intersect, policy.bitmap_index.get());
  return RunSerial(m, g, arcs, sink, &engine);
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
