#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/algo/cost.h"
#include "src/algo/triangle_sink.h"
#include "src/graph/edge_set.h"
#include "src/graph/oriented_graph.h"

/// \file fundamental.h
/// The 18 listing kernels of Section 2, written once: one slice template
/// over the six search patterns of kSearchPatterns (cost.h), instantiated
/// with the check of each family.
///
/// For pattern k, the outer node o runs through every label and its outer
/// list is walked by position p, whose element is w; the third corner c is
/// a local candidate that also lies in w's remote list:
///
///             1        2        3        4        5        6
///   o         z        y        x        z        y        x
///   outer     N+(z)    N-(y)    N-(x)    N+(z)    N+(y)    N-(x)
///   w         y        z        y        x        x        z
///   local     N+(z)    N+(y)    N-(x)    N+(z)    N-(y)    N-(x)
///             before p          after p  after p           before p
///   remote    N+(y)    N+(z)    N-(y)    N-(x)    N-(x)    N+(z)
///                      below y           below z  above y  above x
///
///  - T_k (Section 2.2) probes the directed arc set for each local
///    candidate: OpCounts::candidate_checks += |local|.
///  - E_k (Section 2.3) merge-intersects the local list with the remote
///    list: local_scans += |local|, remote_scans += |remote|, plus the
///    merge's actual comparisons.
///  - L_k (Section 2.3) marks o's unrestricted local list once (hash_inserts
///    += its length) and probes every remote element (lookups += |remote|).
/// A remote list cut above o starts mid-list and costs E5/E6/L5/L6 one
/// binary search per position (binary_searches).
///
/// Each kernel is a loop over an outer iteration space: for every node o
/// in label order, the positions of its outer list. A slice runs the
/// positions in [lo, hi) of that concatenated space, in serial order. The
/// serial run is the slice over the whole space; the parallel engine cuts
/// the space into chunks and runs one slice per chunk. Both therefore
/// execute the same loop body, which is what keeps every counter
/// bit-identical across thread counts. Within one position every family
/// emits its triangles in ascending order of c, so T_k, E_k and L_k list
/// the same sequence.
///
/// A slice is templated on the method and the sink, so each combination
/// is its own devirtualized instantiation. A null sink selects the
/// count-only instantiation: no triangle is emitted, and
/// OpCounts::triangles — exact for every slice — is the count. The
/// count-only E_k slices intersect a row's outer positions two at a time
/// (IntersectMergePairCount, intersect.h), with the single merge's
/// counts; the emitting slices merge one position at a time, so they emit
/// in serial order. The bitmap backend puts a hub shortcut
/// (simd::HubIntersect) in front of that merge: positions it does not
/// take merge exactly as on the merge backend.

namespace trilist {

namespace simd {
class BitmapIndex;
}  // namespace simd

/// Operation counters for one algorithm execution. The same struct is
/// shared by all three families; fields irrelevant to a family stay zero.
struct OpCounts {
  int64_t candidate_checks = 0;   ///< vertex iterators: arc-set probes.
  int64_t local_scans = 0;        ///< SEI: paper-metric local elements.
  int64_t remote_scans = 0;       ///< SEI: paper-metric remote elements.
  int64_t merge_comparisons = 0;  ///< SEI: actual two-pointer comparisons.
  int64_t hash_inserts = 0;       ///< LEI: marker/table build operations.
  int64_t lookups = 0;            ///< LEI: membership probes.
  int64_t binary_searches = 0;    ///< E5/E6/L5/L6 range positioning.
  int64_t triangles = 0;          ///< triangles emitted.

  /// The cost metric the paper's tables report for this run:
  /// candidate checks (vertex iterators), local+remote scans (SEI), or
  /// lookups (LEI).
  int64_t PaperCost() const {
    if (candidate_checks > 0) return candidate_checks;
    if (local_scans + remote_scans > 0) return local_scans + remote_scans;
    return lookups;
  }
};

/// A boundary in the concatenated outer iteration space: the first
/// (node, outer position) pair of a slice. Cuts with pos > 0 land inside a
/// node's range — that is how the parallel engine splits hub rows.
struct Cut {
  NodeId node = 0;
  size_t pos = 0;
};

/// Length of node v's outer position range under method `m`: |N+(v)| or
/// |N-(v)|, as its pattern's outer list.
inline size_t OuterLen(Method m, const OrientedGraph& g, NodeId v) {
  return PatternOf(m).outer_out ? g.OutNeighbors(v).size()
                                : g.InNeighbors(v).size();
}

/// Paper-cost weight of the outer position (v, p) under `m`: |local| for a
/// vertex iterator, |local| + |unrestricted remote| for a scanning edge
/// iterator, |unrestricted remote| for a lookup edge iterator.
int64_t PositionWeight(Method m, const OrientedGraph& g, NodeId v,
                       size_t p);

/// Epoch-stamped membership over dense labels, the lookup edge iterators'
/// hash table: a mark is one store, a probe one load, and moving on to the
/// next outer node one counter bump. Stamps are 32-bit; the array is
/// cleared only when the epoch wraps. One per worker: slices run on one
/// marker in turn keep its epoch running, so no chunk clears it.
class Marker {
 public:
  explicit Marker(size_t n) : stamp_(n, 0) {}

  /// Starts a new epoch holding exactly the elements of `list`. Always
  /// inlined: left to GCC's unit-growth limit in fundamental.cpp, it was
  /// called out of line, the probe loop then reloaded the marker on every
  /// lookup, and dense L2 and L3 listed 13-25% slower.
  [[gnu::always_inline]] void MarkAll(std::span<const NodeId> list) {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    for (const NodeId v : list) stamp_[v] = epoch_;
  }

  bool Has(NodeId v) const { return stamp_[v] == epoch_; }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

/// Runs method `m` over the outer positions [lo, hi).
///  - `arcs` is the directed arc set (read by T1..T6 only).
///  - `sink` receives the slice's triangles in serial order; null counts
///    them only.
///  - `hubs` (may be null) puts its hub shortcut in front of the E1..E6
///    merges (the bitmap backend); null runs the merge alone.
///  - `marker` is the lookup edge iterators' membership set over
///    g.num_nodes() labels (required by L1..L6, ignored otherwise).
OpCounts RunSlice(Method m, const OrientedGraph& g,
                  const DirectedEdgeSet* arcs, Cut lo, Cut hi,
                  TriangleSink* sink, const simd::BitmapIndex* hubs,
                  Marker* marker);

/// Runs `m` over its whole iteration space — the serial kernel. A
/// CountingSink gets the count-only slice and is credited once with the
/// total, as the parallel engine does.
OpCounts RunSerial(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet* arcs, TriangleSink* sink,
                   const simd::BitmapIndex* hubs);

}  // namespace trilist
