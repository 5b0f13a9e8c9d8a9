#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

/// \file flat_hash_set.h
/// Open-addressing hash set of 64-bit keys: the dedupe sets of the graph
/// generators (packed (u,v) edge keys) and the hash-probe side of
/// bench_table3_speed.
///
/// Design notes (why not std::unordered_set): a generator probes once per
/// proposed edge. A power-of-two open-addressing table with linear probing
/// keeps each probe to one cache line in the common case and avoids
/// per-node allocation entirely. Keys are pre-mixed with the SplitMix64
/// finalizer, so adversarial clustering of packed (u,v) edge keys is not a
/// concern.
///
/// This set no longer backs the vertex iterators' arc checks: their probes
/// keep the arc's source fixed, so DirectedEdgeSet (src/graph/edge_set.h)
/// keeps one small table of 32-bit targets per source row instead of one
/// whole-graph table of packed keys.

namespace trilist {

/// \brief Open-addressing set of uint64 keys with linear probing.
///
/// One key value is reserved internally as the empty sentinel
/// (0xFFFF'FFFF'FFFF'FFFF); inserting it is a checked error. Edge keys
/// packed as (u << 32) | v never collide with the sentinel because node IDs
/// are < 2^32 - 1.
class FlatHashSet64 {
 public:
  static constexpr uint64_t kEmpty = ~0ull;

  /// Creates a set sized for `expected` keys at <= 50% load.
  explicit FlatHashSet64(size_t expected = 0) { Reserve(expected); }

  /// Ensures capacity for `expected` keys without rehashing later.
  void Reserve(size_t expected) {
    size_t want = 16;
    while (want < expected * 2) want <<= 1;
    if (want > slots_.size()) Rehash(want);
  }

  /// Number of keys stored.
  size_t size() const { return size_; }

  /// True if no keys are stored.
  bool empty() const { return size_ == 0; }

  /// Inserts `key`; returns true if newly inserted.
  bool Insert(uint64_t key) {
    TRILIST_DCHECK(key != kEmpty);
    if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
    size_t i = Slot(key);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  /// Membership probe.
  bool Contains(uint64_t key) const {
    size_t i = Slot(key);
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  /// Removes `key` if present using backward-shift deletion (keeps probe
  /// chains intact without tombstones). Returns true if the key was found.
  bool Erase(uint64_t key) {
    size_t i = Slot(key);
    while (slots_[i] != key) {
      if (slots_[i] == kEmpty) return false;
      i = (i + 1) & mask_;
    }
    // Backward shift: pull subsequent chain members into the hole while
    // their home slot lies outside the (hole, current] window.
    size_t hole = i;
    size_t j = (i + 1) & mask_;
    while (slots_[j] != kEmpty) {
      const size_t home = Slot(slots_[j]);
      // Can slots_[j] legally move into `hole`? Yes iff hole is not
      // "between" home and j in cyclic probe order.
      const bool between = hole <= j ? (hole < home && home <= j)
                                     : (hole < home || home <= j);
      if (!between) {
        slots_[hole] = slots_[j];
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole] = kEmpty;
    --size_;
    return true;
  }

  /// Removes all keys but keeps the capacity.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

 private:
  size_t Slot(uint64_t key) const { return Mix64(key) & mask_; }

  void Rehash(size_t new_cap) {
    if (new_cap < 16) new_cap = 16;
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(new_cap, kEmpty);
    mask_ = new_cap - 1;
    size_ = 0;
    for (uint64_t key : old) {
      if (key == kEmpty) continue;
      size_t i = Slot(key);
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = key;
      ++size_;
    }
  }

  std::vector<uint64_t> slots_ = std::vector<uint64_t>(16, kEmpty);
  size_t mask_ = 15;
  size_t size_ = 0;
};

}  // namespace trilist
