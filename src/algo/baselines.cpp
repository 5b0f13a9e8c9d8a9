#include "src/algo/baselines.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "src/algo/intersect.h"
#include "src/algo/registry.h"
#include "src/order/pipeline.h"

namespace trilist {

OpCounts RunClassicVertexIterator(const Graph& g, TriangleSink* sink) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t vi = 0; vi < n; ++vi) {
    const auto v = static_cast<NodeId>(vi);
    const auto nb = g.Neighbors(v);
    for (size_t i = 0; i < nb.size(); ++i) {
      for (size_t j = i + 1; j < nb.size(); ++j) {
        ++ops.candidate_checks;
        if (g.HasEdge(nb[i], nb[j])) {
          // Every corner checks this pair; emit only at the smallest.
          if (v < nb[i]) {
            ++ops.triangles;
            sink->Consume(v, nb[i], nb[j]);
          }
        }
      }
    }
  }
  return ops;
}

OpCounts RunT1NoRelabel(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                        TriangleSink* sink) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t zi = 0; zi < n; ++zi) {
    const auto z = static_cast<NodeId>(zi);
    const auto out = g.OutNeighbors(z);
    // Without relabeling the list order is meaningless, so all ordered
    // pairs are generated: X(X-1) checks instead of C(X, 2).
    for (size_t a = 0; a < out.size(); ++a) {
      for (size_t b = 0; b < out.size(); ++b) {
        if (a == b) continue;
        ++ops.candidate_checks;
        // Candidate arc out[b] -> out[a]; succeeds only in one order.
        if (arcs.Contains(out[b], out[a])) {
          ++ops.triangles;
          sink->Consume(out[a], out[b], z);
        }
      }
    }
  }
  return ops;
}

OpCounts RunE1NoRelabel(const OrientedGraph& g, TriangleSink* sink) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  for (size_t zi = 0; zi < n; ++zi) {
    const auto z = static_cast<NodeId>(zi);
    const auto out = g.OutNeighbors(z);
    for (const NodeId y : out) {
      // The local scan cannot stop at y: traverse all of N+(z).
      const auto remote = g.OutNeighbors(y);
      ops.local_scans += static_cast<int64_t>(out.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      ops.merge_comparisons += IntersectMergeT(out, remote, [&](NodeId x) {
        ++ops.triangles;
        sink->Consume(x, y, z);
      });
    }
  }
  return ops;
}

namespace {

/// Descending-degree ranks with ties by node ID: rank 0 = largest degree.
std::vector<NodeId> DescendingDegreeRanks(const Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const int64_t da = g.Degree(a);
    const int64_t db = g.Degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  std::vector<NodeId> rank(n);
  for (size_t pos = 0; pos < n; ++pos) {
    rank[order[pos]] = static_cast<NodeId>(pos);
  }
  return rank;
}

void EmitSortedOriginal(TriangleSink* sink, NodeId a, NodeId b, NodeId c) {
  NodeId t[3] = {a, b, c};
  std::sort(t, t + 3);
  sink->Consume(t[0], t[1], t[2]);
}

}  // namespace

OpCounts RunForward(const Graph& g, TriangleSink* sink) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  const std::vector<NodeId> rank = DescendingDegreeRanks(g);
  std::vector<NodeId> node_at(n);
  for (size_t v = 0; v < n; ++v) node_at[rank[v]] = static_cast<NodeId>(v);

  // A[v]: ranks of already-processed neighbors of v, ascending by
  // construction (we process in rank order).
  std::vector<std::vector<NodeId>> a(n);
  for (size_t s = 0; s < n; ++s) {
    const NodeId u = node_at[s];
    for (const NodeId v : g.Neighbors(u)) {
      if (rank[v] <= s) continue;  // only higher-rank endpoints
      // Intersect A(u) and A(v) (both sorted ascending ranks).
      const auto& au = a[u];
      const auto& av = a[v];
      ops.local_scans += static_cast<int64_t>(au.size());
      ops.remote_scans += static_cast<int64_t>(av.size());
      ops.merge_comparisons += IntersectMergeT(au, av, [&](NodeId w) {
        ++ops.triangles;
        EmitSortedOriginal(sink, node_at[w], u, v);
      });
      a[v].push_back(static_cast<NodeId>(s));
    }
  }
  return ops;
}

OpCounts RunCompactForward(const Graph& g, TriangleSink* sink) {
  // Compact Forward is E2 over the fully preprocessed (relabeled +
  // oriented) graph under the descending-degree order; we reuse the E2
  // engine and translate labels back to original IDs.
  const OrientedGraph og = OrientNamed(g, PermutationKind::kDescending);
  CallbackSink translate([&](NodeId x, NodeId y, NodeId z) {
    EmitSortedOriginal(sink, og.OriginalOf(x), og.OriginalOf(y),
                       og.OriginalOf(z));
  });
  return RunMethod(Method::kE2, og, &translate);
}

}  // namespace trilist
