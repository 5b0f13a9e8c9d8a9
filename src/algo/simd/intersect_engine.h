#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/algo/exec_policy.h"
#include "src/algo/intersect.h"
#include "src/algo/simd/bitmap_index.h"
#include "src/algo/simd/intersect_simd.h"
#include "src/graph/graph.h"
#include "src/graph/oriented_graph.h"

/// \file intersect_engine.h
/// Backend-selectable intersection dispatch for the scanning edge
/// iterators. One engine instance serves one worker (it owns a scratch
/// match buffer); the serial kernels create one per run, the parallel
/// engine one per chunk, all sharing an immutable BitmapIndex.
///
/// Every SEI intersection is a *value-window* intersection: both operand
/// spans are an adjacency row (or a contiguous piece of one) restricted
/// to a half-open label interval [lo, hi) — E1/E2 intersect below y,
/// E3/E5 above y, E4/E6 inside (x, z). The engine therefore takes the
/// window alongside the spans: the bitmap path ANDs exactly the words
/// covering [lo, hi) with masked boundary words, which handles
/// prefix/suffix/mid sub-spans of hub rows without materializing them.
///
/// Counter contract: kMerge, kSimd and kBitmap add the *same*
/// merge_comparisons (the scalar merge's count, see
/// ScalarMergeComparisons), and emission order is ascending for every
/// backend, so triangle streams and OpCounts are bit-identical across all
/// three.

namespace trilist {
namespace simd {

/// Which adjacency row a span came from, so the bitmap path can look up
/// the row's hub bitmap (if any): node `node`'s out-row or in-row.
struct SpanOwner {
  NodeId node = 0;
  bool out = true;
};

/// \brief Per-worker intersection dispatcher (see file comment).
class IntersectEngine {
 public:
  /// `index` may be null (required only by kBitmap; a null index degrades
  /// kBitmap to the vectorized merge path). The index must outlive the
  /// engine.
  explicit IntersectEngine(IntersectBackend backend,
                           const BitmapIndex* index = nullptr)
      : backend_(backend),
        index_(index),
        block_width_(BlockWidth(ActiveSimdLevel())) {}

  IntersectBackend backend() const { return backend_; }

  /// Intersects sorted spans a and b (both subsets of [lo, hi)), adding
  /// this intersection's comparison count to *comparisons and emitting
  /// every common element in ascending order.
  template <typename Emit>
  void Intersect(std::span<const NodeId> a, SpanOwner oa,
                 std::span<const NodeId> b, SpanOwner ob, NodeId lo,
                 NodeId hi, int64_t* comparisons, Emit&& emit) {
    switch (backend_) {
      case IntersectBackend::kMerge:
        *comparisons += IntersectMergeT(a, b, emit);
        return;
      case IntersectBackend::kSimd:
        *comparisons += BlockMerge(a, b, emit);
        return;
      case IntersectBackend::kBitmap:
        BitmapIntersect(a, oa, b, ob, lo, hi, comparisons, emit);
        return;
    }
  }

 private:
  /// Vectorized merge through the scratch buffer; returns the
  /// scalar-equivalent comparison count. A shorter span below the active
  /// level's block width (every span under kScalar) goes to the inline
  /// IntersectMergeT instead: the block kernel would run no block on it,
  /// only its scalar tail, so matches, order and count are the same, minus
  /// the scratch buffer, the out-of-line ISA dispatch and the closed-form
  /// count's binary search.
  template <typename Emit>
  int64_t BlockMerge(std::span<const NodeId> a, std::span<const NodeId> b,
                     Emit&& emit) {
    const size_t cap = a.size() < b.size() ? a.size() : b.size();
    if (cap < block_width_) return IntersectMergeT(a, b, emit);
    if (scratch_.size() < cap) scratch_.resize(cap);
    const size_t matches = BlockMergeIntersect(a, b, scratch_.data());
    for (size_t k = 0; k < matches; ++k) emit(scratch_[k]);
    return ScalarMergeComparisons(a, b, matches);
  }

  /// Degree-partitioned path: word-AND when both rows are hubs and the
  /// window is narrow enough, single-bit probes when one row is a hub and
  /// dominates the other in length, vectorized merge otherwise.
  template <typename Emit>
  void BitmapIntersect(std::span<const NodeId> a, SpanOwner oa,
                       std::span<const NodeId> b, SpanOwner ob, NodeId lo,
                       NodeId hi, int64_t* comparisons, Emit&& emit) {
    if (a.empty() || b.empty()) return;  // scalar merge: 0 comparisons
    const BitmapIndex::HubRef ha = Hub(oa);
    const BitmapIndex::HubRef hb = Hub(ob);
    if (ha && hb) {
      // Word range covering [lo, hi), clamped to what both hubs store
      // (words outside either range AND to zero).
      const uint32_t w_lo =
          std::max({lo / 64, ha.base_word, hb.base_word});
      const uint32_t w_hi =
          std::min({(hi + 63) / 64, ha.base_word + ha.num_words,
                    hb.base_word + hb.num_words});
      const size_t window_words = w_hi > w_lo ? w_hi - w_lo : 0;
      if (window_words <= a.size() + b.size()) {
        size_t matches = 0;
        for (uint32_t w = w_lo; w < w_hi; ++w) {
          uint64_t word = ha.words[w - ha.base_word] &
                          hb.words[w - hb.base_word];
          if (w == lo / 64 && lo % 64 != 0) {
            word &= ~uint64_t{0} << (lo % 64);  // drop labels < lo
          }
          if (w == hi / 64 && hi % 64 != 0) {
            word &= ~(~uint64_t{0} << (hi % 64));  // drop labels >= hi
          }
          while (word != 0) {
            const auto bit =
                static_cast<unsigned>(__builtin_ctzll(word));
            emit(static_cast<NodeId>(w) * 64 + bit);
            ++matches;
            word &= word - 1;
          }
        }
        *comparisons += ScalarMergeComparisons(a, b, matches);
        return;
      }
    }
    // Probe the much shorter span against the hub bitmap. The probed
    // values already lie inside [lo, hi), so hub bits outside the window
    // are never consulted.
    if (ha && b.size() * 8 <= a.size()) {
      *comparisons += Probe(ha, b, a, emit);
      return;
    }
    if (hb && a.size() * 8 <= b.size()) {
      *comparisons += Probe(hb, a, b, emit);
      return;
    }
    *comparisons += BlockMerge(a, b, emit);
  }

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
    // `probes` was intersected against hub_span's bitmap; account as the
    // scalar merge of the two spans would have (argument order of the
    // closed form is symmetric).
    return ScalarMergeComparisons(probes, hub_span, matches);
  }

  BitmapIndex::HubRef Hub(SpanOwner owner) const {
    if (index_ == nullptr) return BitmapIndex::HubRef{};
    return owner.out ? index_->OutHub(owner.node)
                     : index_->InHub(owner.node);
  }

  IntersectBackend backend_;
  const BitmapIndex* index_;
  size_t block_width_;  // BlockWidth of the level active at construction
  std::vector<NodeId> scratch_;
};

/// The bitmap index a policy implies for `g`: the prebuilt one when the
/// policy carries it, a freshly built one for kBitmap without, and null
/// for every other backend (the engine never consults it).
std::shared_ptr<const BitmapIndex> EnsureBitmapIndex(
    const ExecPolicy& policy, const OrientedGraph& g);

}  // namespace simd
}  // namespace trilist
