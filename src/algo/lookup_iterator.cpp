#include "src/algo/lookup_iterator.h"

#include <span>
#include <vector>

#include "src/algo/sei_common.h"

namespace trilist {

namespace {

/// Epoch-stamped membership over dense labels: Mark/Contains are O(1) and
/// resetting for the next node costs one counter bump.
class MarkerSet {
 public:
  explicit MarkerSet(size_t n) : stamp_(n, 0) {}

  void NewEpoch() { ++epoch_; }
  void Mark(NodeId v) { stamp_[v] = epoch_; }
  bool Contains(NodeId v) const { return stamp_[v] == epoch_; }

 private:
  std::vector<uint64_t> stamp_;
  uint64_t epoch_ = 0;
};

using sei::SuffixAbove;

// Attribution (Table 2): every probe is charged to the node whose list is
// scanned remotely; hash inserts are excluded from the lookup class.

template <typename Hook>
OpCounts RunL1Impl(const OrientedGraph& g, TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  MarkerSet local(n);
  for (size_t zi = 0; zi < n; ++zi) {
    const auto z = static_cast<NodeId>(zi);
    const auto out = g.OutNeighbors(z);
    local.NewEpoch();
    for (NodeId v : out) {
      local.Mark(v);
      ++ops.hash_inserts;
    }
    for (const NodeId y : out) {
      const auto remote = g.OutNeighbors(y);
      if constexpr (kHooked<Hook>) {
        hook->Record(y, static_cast<int64_t>(remote.size()));
      }
      for (const NodeId x : remote) {
        ++ops.lookups;
        if (local.Contains(x)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
  }
  return ops;
}

template <typename Hook>
OpCounts RunL2Impl(const OrientedGraph& g, TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  MarkerSet local(n);
  for (size_t yi = 0; yi < n; ++yi) {
    const auto y = static_cast<NodeId>(yi);
    local.NewEpoch();
    for (NodeId v : g.OutNeighbors(y)) {
      local.Mark(v);
      ++ops.hash_inserts;
    }
    for (const NodeId z : g.InNeighbors(y)) {
      [[maybe_unused]] int64_t probes = 0;
      for (const NodeId x : g.OutNeighbors(z)) {
        if (x >= y) break;  // sorted: prefix below y only
        ++ops.lookups;
        if constexpr (kHooked<Hook>) ++probes;
        if (local.Contains(x)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
      if constexpr (kHooked<Hook>) hook->Record(z, probes);
    }
  }
  return ops;
}

template <typename Hook>
OpCounts RunL3Impl(const OrientedGraph& g, TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  MarkerSet local(n);
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
    local.NewEpoch();
    for (NodeId v : in) {
      local.Mark(v);
      ++ops.hash_inserts;
    }
    for (const NodeId y : in) {
      const auto remote = g.InNeighbors(y);
      if constexpr (kHooked<Hook>) {
        hook->Record(y, static_cast<int64_t>(remote.size()));
      }
      for (const NodeId z : remote) {
        ++ops.lookups;
        if (local.Contains(z)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
  }
  return ops;
}

template <typename Hook>
OpCounts RunL4Impl(const OrientedGraph& g, TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  MarkerSet local(n);
  for (size_t zi = 0; zi < n; ++zi) {
    const auto z = static_cast<NodeId>(zi);
    const auto out = g.OutNeighbors(z);
    local.NewEpoch();
    for (NodeId v : out) {
      local.Mark(v);
      ++ops.hash_inserts;
    }
    for (const NodeId x : out) {
      [[maybe_unused]] int64_t probes = 0;
      for (const NodeId y : g.InNeighbors(x)) {
        if (y >= z) break;  // sorted: prefix below z only
        ++ops.lookups;
        if constexpr (kHooked<Hook>) ++probes;
        if (local.Contains(y)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
      if constexpr (kHooked<Hook>) hook->Record(x, probes);
    }
  }
  return ops;
}

template <typename Hook>
OpCounts RunL5Impl(const OrientedGraph& g, TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  MarkerSet local(n);
  for (size_t yi = 0; yi < n; ++yi) {
    const auto y = static_cast<NodeId>(yi);
    local.NewEpoch();
    for (NodeId v : g.InNeighbors(y)) {
      local.Mark(v);
      ++ops.hash_inserts;
    }
    for (const NodeId x : g.OutNeighbors(y)) {
      ++ops.binary_searches;
      const auto remote = SuffixAbove(g.InNeighbors(x), y);
      if constexpr (kHooked<Hook>) {
        hook->Record(x, static_cast<int64_t>(remote.size()));
      }
      for (const NodeId z : remote) {
        ++ops.lookups;
        if (local.Contains(z)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
  }
  return ops;
}

template <typename Hook>
OpCounts RunL6Impl(const OrientedGraph& g, TriangleSink* sink, Hook hook) {
  OpCounts ops;
  const size_t n = g.num_nodes();
  MarkerSet local(n);
  for (size_t xi = 0; xi < n; ++xi) {
    const auto x = static_cast<NodeId>(xi);
    const auto in = g.InNeighbors(x);
    local.NewEpoch();
    for (NodeId v : in) {
      local.Mark(v);
      ++ops.hash_inserts;
    }
    for (const NodeId z : in) {
      ++ops.binary_searches;
      const auto remote = SuffixAbove(g.OutNeighbors(z), x);
      if constexpr (kHooked<Hook>) {
        hook->Record(z, static_cast<int64_t>(remote.size()));
      }
      for (const NodeId y : remote) {
        ++ops.lookups;
        if (local.Contains(y)) {
          ++ops.triangles;
          sink->Consume(x, y, z);
        }
      }
    }
  }
  return ops;
}

}  // namespace

OpCounts RunL1(const OrientedGraph& g, TriangleSink* sink,
               NodeOpsHook* hook) {
  return hook != nullptr ? RunL1Impl(g, sink, hook)
                         : RunL1Impl(g, sink, NoHook{});
}

OpCounts RunL2(const OrientedGraph& g, TriangleSink* sink,
               NodeOpsHook* hook) {
  return hook != nullptr ? RunL2Impl(g, sink, hook)
                         : RunL2Impl(g, sink, NoHook{});
}

OpCounts RunL3(const OrientedGraph& g, TriangleSink* sink,
               NodeOpsHook* hook) {
  return hook != nullptr ? RunL3Impl(g, sink, hook)
                         : RunL3Impl(g, sink, NoHook{});
}

OpCounts RunL4(const OrientedGraph& g, TriangleSink* sink,
               NodeOpsHook* hook) {
  return hook != nullptr ? RunL4Impl(g, sink, hook)
                         : RunL4Impl(g, sink, NoHook{});
}

OpCounts RunL5(const OrientedGraph& g, TriangleSink* sink,
               NodeOpsHook* hook) {
  return hook != nullptr ? RunL5Impl(g, sink, hook)
                         : RunL5Impl(g, sink, NoHook{});
}

OpCounts RunL6(const OrientedGraph& g, TriangleSink* sink,
               NodeOpsHook* hook) {
  return hook != nullptr ? RunL6Impl(g, sink, hook)
                         : RunL6Impl(g, sink, NoHook{});
}

}  // namespace trilist
