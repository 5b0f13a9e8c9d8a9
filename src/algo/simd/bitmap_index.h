#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/oriented_graph.h"

/// \file bitmap_index.h
/// Degree-partitioned packed-bitmap representation of hub adjacency rows.
///
/// Oriented vertices whose out- (or in-) degree reaches a threshold get
/// their neighbor list mirrored into a packed uint64 bitmap indexed by
/// node label; intersection against a hub then becomes word-AND +
/// popcount (both sides hubs) or single-bit probes (one side a hub),
/// while the abundant low-degree rows stay on sorted-array merge. This is
/// the classic dense/sparse degree split of the triangle-listing
/// literature, applied per *oriented* list: after orientation the
/// out-list of label v only holds labels < v and the in-list labels > v,
/// so an out-bitmap spans words [0, ceil(v/64)) and an in-bitmap starts
/// at word (v+1)/64 — hubs near either end of the order cost almost
/// nothing.
///
/// The index is immutable after Build and safe to share across threads.
/// The bitmap backend is a shortcut in front of the one merge
/// (IntersectMergeT and the count-only pair merge, intersect.h): a
/// position whose rows HubIntersect takes is word-ANDed or bit-probed,
/// every other position merges. Both add the scalar merge's comparison
/// count (ScalarMergeComparisons) and emit ascending, so the backends
/// report the same OpCounts and triangle stream.

namespace trilist {
namespace simd {

/// Comparisons the scalar two-pointer merge performs on (a, b), given the
/// number of common elements: iterations = i_end + j_end - matches, with
/// the final cursors determined by whichever list holds the smaller last
/// element. Valid for strictly sorted inputs.
inline int64_t ScalarMergeComparisons(std::span<const NodeId> a,
                                      std::span<const NodeId> b,
                                      size_t matches) {
  if (a.empty() || b.empty()) return 0;
  if (a.back() <= b.back()) {
    const size_t j_end = static_cast<size_t>(
        std::upper_bound(b.begin(), b.end(), a.back()) - b.begin());
    return static_cast<int64_t>(a.size() + j_end - matches);
  }
  const size_t i_end = static_cast<size_t>(
      std::upper_bound(a.begin(), a.end(), b.back()) - a.begin());
  return static_cast<int64_t>(i_end + b.size() - matches);
}

/// \brief Packed hub bitmaps for one oriented graph.
class BitmapIndex {
 public:
  struct Options {
    /// Rows with at least this many neighbors get a bitmap. <= 0 picks
    /// the auto threshold max(64, n/64): below 64 neighbors a row fits a
    /// cache line and merge wins; n/64 keeps a hub's word count within
    /// its own list length, bounding the index at O(m) words total.
    int64_t min_degree = 0;
  };

  /// View of one hub's bitmap: words[w - base_word] holds labels
  /// [64w, 64w + 64). Invalid (words == nullptr) when the row is not a
  /// hub.
  struct HubRef {
    const uint64_t* words = nullptr;
    uint32_t base_word = 0;
    uint32_t num_words = 0;

    explicit operator bool() const { return words != nullptr; }

    /// Membership probe (false outside the stored word range).
    bool Test(NodeId id) const {
      const uint32_t w = id / 64;
      if (w < base_word || w >= base_word + num_words) return false;
      return (words[w - base_word] >> (id % 64)) & 1u;
    }
  };

  BitmapIndex() = default;

  /// Builds bitmaps for every row of `g` meeting the degree threshold.
  static BitmapIndex Build(const OrientedGraph& g, Options opts);
  static BitmapIndex Build(const OrientedGraph& g) {
    return Build(g, Options{});
  }

  /// Bitmap of N+(v) (labels < v), or an invalid ref.
  HubRef OutHub(NodeId v) const {
    return v < out_slot_.size() ? Ref(out_slot_[v]) : HubRef{};
  }
  /// Bitmap of N-(v) (labels > v), or an invalid ref.
  HubRef InHub(NodeId v) const {
    return v < in_slot_.size() ? Ref(in_slot_[v]) : HubRef{};
  }
  /// OutHub(v) when `out`, else InHub(v).
  HubRef RowHub(NodeId v, bool out) const {
    return out ? OutHub(v) : InHub(v);
  }

  /// The degree threshold the build actually used (auto resolved).
  int64_t threshold() const { return threshold_; }
  /// Number of hub rows indexed (out-rows + in-rows).
  size_t num_hubs() const { return hubs_.size(); }
  /// Heap footprint of the index.
  size_t bytes() const {
    return words_.size() * sizeof(uint64_t) + hubs_.size() * sizeof(Hub) +
           (out_slot_.size() + in_slot_.size()) * sizeof(int32_t);
  }

 private:
  struct Hub {
    size_t offset = 0;       // into words_
    uint32_t base_word = 0;
    uint32_t num_words = 0;
  };

  HubRef Ref(int32_t slot) const {
    if (slot < 0) return HubRef{};
    const Hub& h = hubs_[static_cast<size_t>(slot)];
    return HubRef{words_.data() + h.offset, h.base_word, h.num_words};
  }

  std::vector<uint64_t> words_;   // pooled storage of every hub bitmap
  std::vector<Hub> hubs_;
  std::vector<int32_t> out_slot_; // per node: index into hubs_, -1 = none
  std::vector<int32_t> in_slot_;
  int64_t threshold_ = 0;
};

namespace internal {

/// Emits the members of `probes` set in `hub`, the bitmap of `hub_span`;
/// returns the scalar merge's comparisons on (probes, hub_span).
template <typename Emit>
int64_t Probe(BitmapIndex::HubRef hub, std::span<const NodeId> probes,
              std::span<const NodeId> hub_span, Emit&& emit) {
  size_t matches = 0;
  for (const NodeId id : probes) {
    if (hub.Test(id)) {
      emit(id);
      ++matches;
    }
  }
  return ScalarMergeComparisons(probes, hub_span, matches);
}

}  // namespace internal

/// The hub shortcut: intersects sorted spans `a` and `b`, both inside the
/// label window [lo, hi), whose rows have the bitmaps `ha` and `hb` (each
/// may be invalid). Word-AND when both rows are hubs and the window's
/// words number at most |a| + |b|; single-bit probes when one row is a hub
/// at least 8x longer than the other span. Either way adds the scalar
/// merge's comparison count to *comparisons, emits every common element
/// ascending, and returns true (as for an empty span). Returns false,
/// having done nothing, when neither applies: the caller merges the spans.
template <typename Emit>
bool HubIntersect(BitmapIndex::HubRef ha, std::span<const NodeId> a,
                  BitmapIndex::HubRef hb, std::span<const NodeId> b,
                  NodeId lo, NodeId hi, int64_t* comparisons, Emit&& emit) {
  if (a.empty() || b.empty()) return true;  // the merge: 0 comparisons
  if (ha && hb) {
    // Word range covering [lo, hi), clamped to what both hubs store
    // (words outside either range AND to zero).
    const uint32_t w_lo = std::max({lo / 64, ha.base_word, hb.base_word});
    const uint32_t w_hi =
        std::min({(hi + 63) / 64, ha.base_word + ha.num_words,
                  hb.base_word + hb.num_words});
    const size_t window_words = w_hi > w_lo ? w_hi - w_lo : 0;
    if (window_words <= a.size() + b.size()) {
      size_t matches = 0;
      for (uint32_t w = w_lo; w < w_hi; ++w) {
        uint64_t word =
            ha.words[w - ha.base_word] & hb.words[w - hb.base_word];
        if (w == lo / 64 && lo % 64 != 0) {
          word &= ~uint64_t{0} << (lo % 64);  // drop labels < lo
        }
        if (w == hi / 64 && hi % 64 != 0) {
          word &= ~(~uint64_t{0} << (hi % 64));  // drop labels >= hi
        }
        while (word != 0) {
          const auto bit = static_cast<unsigned>(__builtin_ctzll(word));
          emit(static_cast<NodeId>(w) * 64 + bit);
          ++matches;
          word &= word - 1;
        }
      }
      *comparisons += ScalarMergeComparisons(a, b, matches);
      return true;
    }
  }
  // Probe the much shorter span against the hub bitmap. The probed values
  // already lie inside [lo, hi), so hub bits outside the window are never
  // consulted.
  if (ha && b.size() * 8 <= a.size()) {
    *comparisons += internal::Probe(ha, b, a, emit);
    return true;
  }
  if (hb && a.size() * 8 <= b.size()) {
    *comparisons += internal::Probe(hb, a, b, emit);
    return true;
  }
  return false;
}

}  // namespace simd
}  // namespace trilist
