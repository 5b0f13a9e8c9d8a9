#include "src/xm/partitioned.h"

#include <algorithm>
#include <span>

#include "src/algo/intersect.h"
#include "src/algo/sei_common.h"
#include "src/util/status.h"

namespace trilist {

namespace {

constexpr int64_t kBytesPerId = static_cast<int64_t>(sizeof(NodeId));

int64_t GraphBytes(const OrientedGraph& g) {
  return static_cast<int64_t>(g.num_arcs()) * kBytesPerId;
}

/// Counts wedge (y, z) with its local and remote lists and emits the
/// triangles that close it. Out of line on purpose: inlined into the pass
/// loop, the merge loop inherits that loop's register pressure and spills
/// on every comparison (measured ~10% slower partitioned E1/E2).
[[gnu::noinline]] void CloseWedge(std::span<const NodeId> local,
                                  std::span<const NodeId> remote, NodeId y,
                                  NodeId z, TriangleSink* sink,
                                  OpCounts* ops) {
  ops->local_scans += static_cast<int64_t>(local.size());
  ops->remote_scans += static_cast<int64_t>(remote.size());
  ops->merge_comparisons += IntersectMergeT(local, remote, [&](NodeId x) {
    ++ops->triangles;
    sink->Consume(x, y, z);
  });
}

/// The one partitioned loop. Each pass makes partition [lo, hi) resident
/// (its out-lists are loaded once), then streams every row v in label
/// order and completes the wedges that need both the streamed row and a
/// resident list:
///  - E1 is E2's y-major loop with the apex z restricted to [lo, hi): the
///    streamed row N+(y) is the remote list, the resident N+(z) the local.
///  - E2 is E1's z-major loop with the middle y restricted to [lo, hi):
///    the streamed row N+(z) is the remote list, the resident N+(y) the
///    local.
template <bool kE2>
OpCounts RunPasses(const OrientedGraph& g, const Partitioning& parts,
                   TriangleSink* sink, IoStats* io, PassObserver* observer) {
  OpCounts ops;
  IoStats ledger;
  const std::span<const size_t> offsets = g.RawOutOffsets();
  const size_t n = g.num_nodes();
  for (size_t p = 0; p < parts.num_partitions(); ++p) {
    const NodeId lo = parts.lower(p);
    const NodeId hi = parts.upper(p);
    ++ledger.passes;
    ledger.bytes_loaded +=
        static_cast<int64_t>(offsets[hi] - offsets[lo]) * kBytesPerId;
    if (observer != nullptr) observer->BeginPass(lo, hi);
    for (size_t vi = 0; vi < n; ++vi) {
      const auto v = static_cast<NodeId>(vi);
      const auto streamed = g.OutNeighbors(v);
      ledger.bytes_streamed +=
          static_cast<int64_t>(streamed.size()) * kBytesPerId;
      if constexpr (kE2) {
        for (const NodeId y : sei::RangeWithin(streamed, lo, hi)) {
          CloseWedge(g.OutNeighbors(y), sei::PrefixBelow(streamed, y), y, v,
                     sink, &ops);
        }
      } else {
        for (const NodeId z : sei::RangeWithin(g.InNeighbors(v), lo, hi)) {
          CloseWedge(sei::PrefixBelow(g.OutNeighbors(z), v), streamed, v, z,
                     sink, &ops);
        }
      }
      if (observer != nullptr) observer->AfterRow(v);
    }
    if (observer != nullptr) observer->EndPass();
  }
  if (io != nullptr) *io = ledger;
  return ops;
}

}  // namespace

Partitioning::Partitioning(const OrientedGraph& g, size_t max_partitions) {
  TRILIST_DCHECK(max_partitions >= 1);
  const size_t n = g.num_nodes();
  bounds_.push_back(0);
  if (n == 0) {
    bounds_.push_back(0);
    return;
  }
  const int64_t total = GraphBytes(g);
  const int64_t target = std::max<int64_t>(
      1, (total + static_cast<int64_t>(max_partitions) - 1) /
             static_cast<int64_t>(max_partitions));
  int64_t acc = 0;
  for (size_t v = 0; v < n; ++v) {
    acc += g.OutDegree(static_cast<NodeId>(v)) * kBytesPerId;
    const bool last_node = v + 1 == n;
    if (!last_node && acc >= target &&
        bounds_.size() < max_partitions) {
      bounds_.push_back(static_cast<NodeId>(v + 1));
      acc = 0;
    }
  }
  bounds_.push_back(static_cast<NodeId>(n));
}

Partitioning Partitioning::ForMemoryBudget(const OrientedGraph& g,
                                           int64_t budget_bytes) {
  TRILIST_DCHECK(budget_bytes > 0);
  const int64_t total = GraphBytes(g);
  const auto k = static_cast<size_t>(
      std::max<int64_t>(1, (total + budget_bytes - 1) / budget_bytes));
  return Partitioning(g, k);
}

OpCounts RunPartitionedE1(const OrientedGraph& g, const Partitioning& parts,
                          TriangleSink* sink, IoStats* io,
                          PassObserver* observer) {
  return RunPasses<false>(g, parts, sink, io, observer);
}

OpCounts RunPartitionedE2(const OrientedGraph& g, const Partitioning& parts,
                          TriangleSink* sink, IoStats* io,
                          PassObserver* observer) {
  return RunPasses<true>(g, parts, sink, io, observer);
}

}  // namespace trilist
