#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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
///     (~NodeId{0}). The home slot is the low bits of an inline
///     multiplicative hash of the target.
///   - A row is cut into aligned groups of w = min(kGroup, capacity)
///     slots. A target goes into its home group, the group holding its
///     home slot: into the home slot itself when that is empty, else into
///     the first empty slot the group's empty mask shows. When the group
///     is full, it goes to the next group, wrapping within the row. Each
///     row is at most half full, so some group of it always has an empty
///     slot.
///   - A lookup compares all of a group against the target and against
///     `kEmpty` at once (two SSE2 loads of 4 slots, or a portable loop
///     building the same masks) and stops at the first group that holds
///     the target or an empty slot. That is exact because slots are never
///     deleted: if the group has an empty slot now, it had one when the
///     target was inserted, so the target went into this group or into
///     no later one.
///   - The multiplicative hash permutes residues mod the capacity, so
///     labels that differ mod the capacity never share a home slot, and a
///     row answers most probes from one group, with no per-slot branch.
///     A full group costs one more group compare, never correctness, and
///     a probe never leaves its row.
///
/// Why this is faster than packing (from << 32) | to into one table: the
/// probes of one inner loop all land in one row's few cache lines, which
/// stay resident while the loop runs, instead of in random slots of a
/// table of 2m-4m 8-byte keys; slots are half the size; and the hash is a
/// multiply, not an out-of-line 64-bit mixer. The build is one sequential
/// pass per row.
///
/// Memory: <= 4 B x 4m slots + 8 B x (n + 1) offsets (each row's capacity
/// is below 4 * d+(v)), plus kGroup - 1 trailing `kEmpty` slots (28 B)
/// when m > 0, so the 8-slot load of a last row of capacity 2 or 4 stays
/// inside the array; bytes() reports the exact footprint.

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
  /// Slots a probe compares at once; a row's groups are min(kGroup,
  /// capacity) slots wide.
  static constexpr size_t kGroup = 8;

  /// One source row's table: answers Contains(to) for arcs from a fixed
  /// source, so a kernel whose inner loop keeps the source fixed looks the
  /// row up once.
  class RowHandle {
   public:
    /// True iff the row holds `to`. Any `to` is allowed; kEmpty is never
    /// held.
    bool Contains(NodeId to) const {
      if (cap_ == 0) return false;
      size_t g = GroupOf(Home(to, cap_), cap_);
      for (;;) {
        const Masks m = Compare(slots_ + g, to);
        const uint32_t hit = m.hit & lanes_;
        const uint32_t empty = m.empty & lanes_;
        if ((hit | empty) != 0) return (hit & ~empty) != 0;
        g = (g + kGroup) & (cap_ - 1);
      }
    }

   private:
    friend class DirectedEdgeSet;
    RowHandle(const NodeId* slots, size_t cap)
        : slots_(slots), cap_(cap), lanes_(LaneMask(cap)) {}

    const NodeId* slots_;
    size_t cap_;
    uint32_t lanes_;  // 4 bits per slot of the row's group width
  };

  /// Indexes every arc of `g` (O(n + m) build, <= 50% load per row).
  explicit DirectedEdgeSet(const OrientedGraph& g);

  /// The table of row `from`. Precondition: from < n, the node count of
  /// the indexed graph (the row is looked up directly).
  RowHandle Row(NodeId from) const {
    TRILIST_DCHECK(from + size_t{1} < offsets_.size());
    const size_t begin = offsets_[from];
    return RowHandle(slots_.data() + begin, offsets_[from + 1] - begin);
  }

  /// True iff the arc from -> to exists. Precondition: from < n. Any `to`
  /// is allowed.
  bool Contains(NodeId from, NodeId to) const {
    return Row(from).Contains(to);
  }

  /// Number of arcs indexed.
  size_t size() const { return size_; }

  /// Heap footprint of the index in bytes (slots, the trailing pad and
  /// row offsets).
  size_t bytes() const {
    return slots_.size() * sizeof(NodeId) + offsets_.size() * sizeof(size_t);
  }

 private:
  /// Per-slot compare results of one kGroup-slot load: 4 bits per slot,
  /// slot i in bits [4i, 4i + 4).
  struct Masks {
    uint32_t hit;    // slot == the key
    uint32_t empty;  // slot == kEmpty
  };

  /// Compares the kGroup slots at `group` against `to` and `kEmpty`. Reads
  /// all kGroup slots whatever the row's width; callers mask the result to
  /// the row with LaneMask.
  static Masks Compare(const NodeId* group, NodeId to) {
#if defined(__SSE2__)
    const auto* p = reinterpret_cast<const __m128i*>(group);
    const __m128i lo = _mm_loadu_si128(p);
    const __m128i hi = _mm_loadu_si128(p + 1);
    const __m128i key = _mm_set1_epi32(static_cast<int>(to));
    const __m128i none = _mm_set1_epi32(-1);  // kEmpty
    const auto mask = [](__m128i a, __m128i b) {
      return static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi32(a, b)));
    };
    return {mask(lo, key) | mask(hi, key) << 16,
            mask(lo, none) | mask(hi, none) << 16};
#else
    Masks m{0, 0};
    for (size_t i = 0; i < kGroup; ++i) {
      m.hit |= (group[i] == to ? 0xFu : 0u) << (4 * i);
      m.empty |= (group[i] == kEmpty ? 0xFu : 0u) << (4 * i);
    }
    return m;
#endif
  }

  /// The compare-mask bits of a row of capacity `cap`: (1 << 4 min(cap,
  /// kGroup)) - 1.
  static uint32_t LaneMask(size_t cap) {
    return cap >= kGroup ? ~uint32_t{0}
                         : (uint32_t{1} << (4 * cap)) - 1;
  }

  /// First slot of the group holding `slot` in a row of capacity `cap`.
  static size_t GroupOf(size_t slot, size_t cap) {
    return slot & ~(std::min(cap, kGroup) - 1);
  }

  /// Home slot of `to` in a row of power-of-two capacity `cap`: the low
  /// bits of a 32-bit multiplicative hash (an odd multiplier permutes the
  /// residues mod `cap`).
  static size_t Home(NodeId to, size_t cap) {
    return static_cast<size_t>(to * 0x9E3779B1u) & (cap - 1);
  }

  std::vector<size_t> offsets_;  // n + 1 row starts; capacity = difference
  std::vector<NodeId> slots_;    // every row's table, kEmpty when free,
                                 // then kGroup - 1 kEmpty pad slots
  size_t size_ = 0;
};

}  // namespace trilist
