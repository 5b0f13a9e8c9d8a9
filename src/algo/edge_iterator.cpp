#include "src/algo/edge_iterator.h"

#include "src/algo/fundamental.h"
#include "src/algo/sei_common.h"
#include "src/algo/simd/intersect_engine.h"

namespace trilist {

using sei::PrefixBelow;
using sei::SuffixAbove;

namespace {

// Window arguments (see intersect_engine.h): each kernel's two operand
// spans are row restrictions to one label interval — [0, y) for E1/E2,
// (y, n) for E3/E5, (x, z) for E4/E6.

template <typename Isect>
OpCounts RunE2Impl(const OrientedGraph& g, TriangleSink* sink, Isect isect) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t yi = 0; yi < n; ++yi) {
    const auto y = static_cast<NodeId>(yi);
    const auto local = g.OutNeighbors(y);
    for (const NodeId z : g.InNeighbors(y)) {
      const auto remote = PrefixBelow(g.OutNeighbors(z), y);
      ops.local_scans += static_cast<int64_t>(local.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      isect(local, {y, true}, remote, {z, true}, 0, y,
            &ops.merge_comparisons, [&](NodeId x) {
              ++ops.triangles;
              sink->Consume(x, y, z);
            });
    }
  }
  return ops;
}

template <typename Isect>
OpCounts RunE3Impl(const OrientedGraph& g, TriangleSink* sink, Isect isect) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
    for (size_t idx = 0; idx < in.size(); ++idx) {
      const NodeId y = in[idx];
      const auto local = in.subspan(idx + 1);  // elements of N-(x) above y
      const auto remote = g.InNeighbors(y);
      ops.local_scans += static_cast<int64_t>(local.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      isect(local, {x, false}, remote, {y, false}, y + 1,
            static_cast<NodeId>(n), &ops.merge_comparisons, [&](NodeId z) {
              ++ops.triangles;
              sink->Consume(x, y, z);
            });
    }
  }
  return ops;
}

template <typename Isect>
OpCounts RunE5Impl(const OrientedGraph& g, TriangleSink* sink, Isect isect) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t yi = 0; yi < n; ++yi) {
    const auto y = static_cast<NodeId>(yi);
    const auto local = g.InNeighbors(y);
    for (const NodeId x : g.OutNeighbors(y)) {
      // The start of the remote range is buried mid-list: one binary
      // search per arc (the E5 handicap of Section 2.3).
      const auto remote = SuffixAbove(g.InNeighbors(x), y);
      ++ops.binary_searches;
      ops.local_scans += static_cast<int64_t>(local.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      isect(local, {y, false}, remote, {x, false}, y + 1,
            static_cast<NodeId>(n), &ops.merge_comparisons, [&](NodeId z) {
              ++ops.triangles;
              sink->Consume(x, y, z);
            });
    }
  }
  return ops;
}

template <typename Isect>
OpCounts RunE6Impl(const OrientedGraph& g, TriangleSink* sink, Isect isect) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
    for (size_t idx = 0; idx < in.size(); ++idx) {
      const NodeId z = in[idx];
      const auto local = in.first(idx);  // y candidates below z
      const auto remote = SuffixAbove(g.OutNeighbors(z), x);
      ++ops.binary_searches;
      ops.local_scans += static_cast<int64_t>(local.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      isect(local, {x, false}, remote, {z, true}, x + 1, z,
            &ops.merge_comparisons, [&](NodeId y) {
              ++ops.triangles;
              sink->Consume(x, y, z);
            });
    }
  }
  return ops;
}

}  // namespace

#define TRILIST_DEFINE_SEI(NAME)                                  \
  OpCounts NAME(const OrientedGraph& g, TriangleSink* sink,       \
                simd::IntersectEngine* engine) {                  \
    return sei::WithIsect(engine, [&](auto isect) {               \
      return NAME##Impl(g, sink, isect);                          \
    });                                                           \
  }

TRILIST_DEFINE_SEI(RunE2)
TRILIST_DEFINE_SEI(RunE3)
TRILIST_DEFINE_SEI(RunE5)
TRILIST_DEFINE_SEI(RunE6)

#undef TRILIST_DEFINE_SEI

// E1 and E4 are fundamental: one slice kernel serves serial and parallel.
OpCounts RunE1(const OrientedGraph& g, TriangleSink* sink,
               simd::IntersectEngine* engine) {
  return RunFundamental(Method::kE1, g, nullptr, sink, engine);
}

OpCounts RunE4(const OrientedGraph& g, TriangleSink* sink,
               simd::IntersectEngine* engine) {
  return RunFundamental(Method::kE4, g, nullptr, sink, engine);
}

}  // namespace trilist
