#include "src/algo/registry.h"

#include "src/algo/edge_iterator.h"
#include "src/algo/lookup_iterator.h"
#include "src/algo/parallel_engine.h"
#include "src/algo/simd/intersect_engine.h"
#include "src/util/status.h"

namespace trilist {

namespace {

/// Serial SEI dispatch under a non-default intersection backend: one
/// engine (and, for kBitmap, one index) per run, shared by every arc.
OpCounts RunSeiWithPolicy(Method m, const OrientedGraph& g,
                          TriangleSink* sink, const ExecPolicy& exec) {
  const std::shared_ptr<const simd::BitmapIndex> index =
      simd::EnsureBitmapIndex(exec, g);
  simd::IntersectEngine engine(exec.intersect, index.get());
  switch (m) {
    case Method::kE1: return RunE1(g, sink, &engine);
    case Method::kE2: return RunE2(g, sink, &engine);
    case Method::kE3: return RunE3(g, sink, &engine);
    case Method::kE4: return RunE4(g, sink, &engine);
    case Method::kE5: return RunE5(g, sink, &engine);
    case Method::kE6: return RunE6(g, sink, &engine);
    default: break;
  }
  TRILIST_DCHECK(false);
  return OpCounts{};
}

}  // namespace

OpCounts RunMethod(Method m, const OrientedGraph& g, TriangleSink* sink) {
  if (MethodFamily(m) == Family::kVertexIterator) {
    const DirectedEdgeSet arcs(g);
    return RunMethod(m, g, arcs, sink);
  }
  const DirectedEdgeSet empty_arcs{OrientedGraph()};
  return RunMethod(m, g, empty_arcs, sink);
}

OpCounts RunMethod(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet& arcs, TriangleSink* sink) {
  switch (m) {
    case Method::kT1: return RunT1(g, arcs, sink);
    case Method::kT2: return RunT2(g, arcs, sink);
    case Method::kT3: return RunT3(g, arcs, sink);
    case Method::kT4: return RunT4(g, arcs, sink);
    case Method::kT5: return RunT5(g, arcs, sink);
    case Method::kT6: return RunT6(g, arcs, sink);
    case Method::kE1: return RunE1(g, sink);
    case Method::kE2: return RunE2(g, sink);
    case Method::kE3: return RunE3(g, sink);
    case Method::kE4: return RunE4(g, sink);
    case Method::kE5: return RunE5(g, sink);
    case Method::kE6: return RunE6(g, sink);
    case Method::kL1: return RunL1(g, sink);
    case Method::kL2: return RunL2(g, sink);
    case Method::kL3: return RunL3(g, sink);
    case Method::kL4: return RunL4(g, sink);
    case Method::kL5: return RunL5(g, sink);
    case Method::kL6: return RunL6(g, sink);
  }
  return OpCounts{};
}

OpCounts RunMethod(Method m, const OrientedGraph& g, TriangleSink* sink,
                   const ExecPolicy& exec) {
  if (exec.threads > 1) return RunMethodParallel(m, g, sink, exec);
  if (MethodFamily(m) == Family::kScanningEdgeIterator &&
      exec.intersect != IntersectBackend::kMerge) {
    return RunSeiWithPolicy(m, g, sink, exec);
  }
  return RunMethod(m, g, sink);
}

OpCounts RunMethod(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet& arcs, TriangleSink* sink,
                   const ExecPolicy& exec) {
  if (exec.threads > 1) return RunMethodParallel(m, g, arcs, sink, exec);
  if (MethodFamily(m) == Family::kScanningEdgeIterator &&
      exec.intersect != IntersectBackend::kMerge) {
    return RunSeiWithPolicy(m, g, sink, exec);
  }
  return RunMethod(m, g, arcs, sink);
}

}  // namespace trilist
