#include "src/algo/vertex_iterator.h"

#include "src/algo/fundamental.h"

namespace trilist {

namespace {

template <typename Hook>
OpCounts RunT3Impl(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                   TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    for (size_t a = 0; a + 1 < in.size(); ++a) {
      const NodeId y = in[a];
      for (size_t b = a + 1; b < in.size(); ++b) {
        const NodeId z = in[b];
        ++ops.candidate_checks;
        if (arcs.Contains(z, y)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(x, ops.candidate_checks - before);
    }
  }
  return ops;
}

template <typename Hook>
OpCounts RunT4Impl(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                   TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t zi = 0; zi < n; ++zi) {
    const auto z = static_cast<NodeId>(zi);
    const auto out = g.OutNeighbors(z);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    // Same pair set as T1, visited x-first.
    for (size_t a = 0; a + 1 < out.size(); ++a) {
      const NodeId x = out[a];
      for (size_t b = a + 1; b < out.size(); ++b) {
        const NodeId y = out[b];
        ++ops.candidate_checks;
        if (arcs.Contains(y, x)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(z, ops.candidate_checks - before);
    }
  }
  return ops;
}

template <typename Hook>
OpCounts RunT5Impl(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                   TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t yi = 0; yi < n; ++yi) {
    const auto y = static_cast<NodeId>(yi);
    const auto in = g.InNeighbors(y);
    const auto out = g.OutNeighbors(y);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    for (const NodeId x : out) {
      for (const NodeId z : in) {
        ++ops.candidate_checks;
        if (arcs.Contains(z, x)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(y, ops.candidate_checks - before);
    }
  }
  return ops;
}

template <typename Hook>
OpCounts RunT6Impl(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                   TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
    [[maybe_unused]] const int64_t before = ops.candidate_checks;
    for (size_t b = 1; b < in.size(); ++b) {
      const NodeId z = in[b];
      for (size_t a = 0; a < b; ++a) {
        const NodeId y = in[a];
        ++ops.candidate_checks;
        if (arcs.Contains(z, y)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
    if constexpr (kHooked<Hook>) {
      hook->Record(x, ops.candidate_checks - before);
    }
  }
  return ops;
}

}  // namespace

OpCounts RunT1(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink, NodeOpsHook* hook) {
  return RunFundamental(Method::kT1, g, &arcs, sink, hook, nullptr);
}

OpCounts RunT2(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink, NodeOpsHook* hook) {
  return RunFundamental(Method::kT2, g, &arcs, sink, hook, nullptr);
}

OpCounts RunT3(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink, NodeOpsHook* hook) {
  return hook != nullptr ? RunT3Impl(g, arcs, sink, hook)
                         : RunT3Impl(g, arcs, sink, NoHook{});
}

OpCounts RunT4(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink, NodeOpsHook* hook) {
  return hook != nullptr ? RunT4Impl(g, arcs, sink, hook)
                         : RunT4Impl(g, arcs, sink, NoHook{});
}

OpCounts RunT5(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink, NodeOpsHook* hook) {
  return hook != nullptr ? RunT5Impl(g, arcs, sink, hook)
                         : RunT5Impl(g, arcs, sink, NoHook{});
}

OpCounts RunT6(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink, NodeOpsHook* hook) {
  return hook != nullptr ? RunT6Impl(g, arcs, sink, hook)
                         : RunT6Impl(g, arcs, sink, NoHook{});
}

}  // namespace trilist
