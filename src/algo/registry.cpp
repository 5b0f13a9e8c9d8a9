#include "src/algo/registry.h"

#include <cstring>
#include <memory>

#include "src/algo/fundamental.h"
#include "src/algo/parallel_engine.h"
#include "src/algo/simd/bitmap_index.h"

namespace trilist {

const char* IntersectBackendName(IntersectBackend backend) {
  return backend == IntersectBackend::kBitmap ? "bitmap" : "merge";
}

bool ParseIntersectBackend(const char* name, IntersectBackend* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "merge") == 0) {
    *out = IntersectBackend::kMerge;
  } else if (std::strcmp(name, "bitmap") == 0) {
    *out = IntersectBackend::kBitmap;
  } else {
    return false;
  }
  return true;
}

namespace {

/// The one dispatch behind both RunMethod overloads (and
/// RunMethodParallel); `arcs` is read by the vertex iterators only.
OpCounts Dispatch(Method m, const OrientedGraph& g,
                  const DirectedEdgeSet* arcs, TriangleSink* sink,
                  const ExecPolicy& exec) {
  // For kBitmap on a scanning edge iterator, one index per run (the
  // policy's, or one built here), shared by every worker; null otherwise,
  // which runs the merge alone.
  ExecPolicy policy = exec;
  if (policy.intersect != IntersectBackend::kBitmap ||
      MethodFamily(m) != Family::kScanningEdgeIterator) {
    policy.bitmap_index = nullptr;
  } else if (policy.bitmap_index == nullptr) {
    policy.bitmap_index =
        std::make_shared<const simd::BitmapIndex>(simd::BitmapIndex::Build(g));
  }
  if (policy.threads > 1 && g.num_nodes() > 0) {
    return RunParallel(m, g, arcs, sink, policy);
  }
  return RunSerial(m, g, arcs, sink, policy.bitmap_index.get());
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
