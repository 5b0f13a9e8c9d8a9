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

}  // namespace

using sei::SuffixAbove;

OpCounts RunL1(const OrientedGraph& g, TriangleSink* sink) {
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

OpCounts RunL2(const OrientedGraph& g, TriangleSink* sink) {
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
      for (const NodeId x : g.OutNeighbors(z)) {
        if (x >= y) break;  // sorted: prefix below y only
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

OpCounts RunL3(const OrientedGraph& g, TriangleSink* sink) {
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

OpCounts RunL4(const OrientedGraph& g, TriangleSink* sink) {
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
      for (const NodeId y : g.InNeighbors(x)) {
        if (y >= z) break;  // sorted: prefix below z only
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

OpCounts RunL5(const OrientedGraph& g, TriangleSink* sink) {
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

OpCounts RunL6(const OrientedGraph& g, TriangleSink* sink) {
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

}  // namespace trilist
