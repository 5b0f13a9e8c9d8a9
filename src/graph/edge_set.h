#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/oriented_graph.h"
#include "src/util/status.h"

/// \file edge_set.h
/// Row-local arc-existence index over an oriented graph.
///
/// Vertex iterators (T1..T6) generate candidate arcs and "check them
/// against E(theta_n) using a hash table" (Section 2.2). Every kernel's
/// inner loop keeps the arc's source fixed (T1 probes row y for each x in
/// N+(z) below y; T2 probes row z for each x in N+(y)), so the index is
/// one small hash table per source row rather than one whole-graph table:
///
///   - `slots_` holds every row's table back to back; row v owns
///     `slots_[offsets_[v], offsets_[v + 1])`. Its capacity is the next
///     power of two >= 2 * d+(v), or 0 when v has no out-arcs.
///   - A slot holds a 32-bit target or the empty marker `kEmpty`
///     (~NodeId{0}); collisions probe linearly and wrap within the row.
///   - The home slot is the low bits of an inline multiplicative hash of
///     the target, which permutes residues mod the capacity: labels that
///     differ mod the capacity never share a home slot. So a row whose
///     source label is at most its capacity (most rows of G(1000, 1/2)
///     under theta_D) answers each probe from one slot. Targets that agree
///     mod the capacity share a probe chain; that costs probes, never
///     correctness, and a chain never leaves its row.
///
/// Why this is faster than packing (from << 32) | to into one table: the
/// probes of one inner loop all land in one row's few cache lines, which
/// stay resident while the loop runs, instead of in random slots of a
/// table of 2m-4m 8-byte keys; slots are half the size; and the hash is a
/// multiply, not an out-of-line 64-bit mixer. The build is one sequential
/// pass per row.
///
/// Memory: <= 4 B x 4m slots + 8 B x (n + 1) offsets (each row's capacity
/// is below 4 * d+(v)); bytes() reports the exact footprint.

namespace trilist {

/// Packs an arc (or an undirected edge given as (min, max)) into a 64-bit
/// key for a caller's own hash set; node IDs are < 2^32.
inline uint64_t PackArc(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

/// \brief Whole-graph directed-arc membership index, one table per row.
class DirectedEdgeSet {
 public:
  /// Empty-slot marker; no node ID equals it (IDs are < 2^32 - 1).
  static constexpr NodeId kEmpty = ~NodeId{0};

  /// Indexes every arc of `g` (O(n + m) build, <= 50% load per row).
  explicit DirectedEdgeSet(const OrientedGraph& g);

  /// True iff the arc from -> to exists. Precondition: from < n, the node
  /// count of the indexed graph (the row is looked up directly). Any `to`
  /// is allowed.
  bool Contains(NodeId from, NodeId to) const {
    TRILIST_DCHECK(from + size_t{1} < offsets_.size());
    const size_t begin = offsets_[from];
    const size_t cap = offsets_[from + 1] - begin;
    if (cap == 0) return false;
    const NodeId* row = slots_.data() + begin;
    size_t i = Home(to, cap);
    for (;;) {
      const NodeId s = row[i];
      if (s == kEmpty) return false;
      if (s == to) return true;
      i = (i + 1) & (cap - 1);
    }
  }

  /// Number of arcs indexed.
  size_t size() const { return size_; }

  /// Heap footprint of the index in bytes (slots plus row offsets).
  size_t bytes() const {
    return slots_.size() * sizeof(NodeId) + offsets_.size() * sizeof(size_t);
  }

 private:
  /// Home slot of `to` in a row of power-of-two capacity `cap`: the low
  /// bits of a 32-bit multiplicative hash (an odd multiplier permutes the
  /// residues mod `cap`).
  static size_t Home(NodeId to, size_t cap) {
    return static_cast<size_t>(to * 0x9E3779B1u) & (cap - 1);
  }

  std::vector<size_t> offsets_;  // n + 1 row starts; capacity = difference
  std::vector<NodeId> slots_;    // every row's table, kEmpty when free
  size_t size_ = 0;
};

}  // namespace trilist
