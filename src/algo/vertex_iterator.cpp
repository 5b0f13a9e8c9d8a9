#include "src/algo/vertex_iterator.h"

#include "src/algo/fundamental.h"

namespace trilist {

OpCounts RunT1(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink) {
  return RunFundamental(Method::kT1, g, &arcs, sink, nullptr);
}

OpCounts RunT2(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink) {
  return RunFundamental(Method::kT2, g, &arcs, sink, nullptr);
}

OpCounts RunT3(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
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
  }
  return ops;
}

OpCounts RunT4(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t zi = 0; zi < n; ++zi) {
    const auto z = static_cast<NodeId>(zi);
    const auto out = g.OutNeighbors(z);
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
  }
  return ops;
}

OpCounts RunT5(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t yi = 0; yi < n; ++yi) {
    const auto y = static_cast<NodeId>(yi);
    const auto in = g.InNeighbors(y);
    const auto out = g.OutNeighbors(y);
    for (const NodeId x : out) {
      for (const NodeId z : in) {
        ++ops.candidate_checks;
        if (arcs.Contains(z, x)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
  }
  return ops;
}

OpCounts RunT6(const OrientedGraph& g, const DirectedEdgeSet& arcs,
               TriangleSink* sink) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
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
  }
  return ops;
}

}  // namespace trilist
