#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/graph.h"

/// \file oriented_graph.h
/// Acyclically oriented graph after relabeling (steps 1-2 of the paper's
/// three-step framework, Section 2.1).
///
/// Every node is renamed to its label under the chosen global order; the
/// undirected edge (u, v) becomes an arc from the larger label to the
/// smaller (y -> x iff x < y). Nodes in this structure ARE labels: node i
/// of an OrientedGraph is the node whose new ID is i. Both the out-list
/// N+(i) (labels < i) and the in-list N-(i) (labels > i) are stored in CSR
/// form, sorted ascending, which is exactly the layout the 18 triangle
/// listing patterns traverse.
///
/// Like Graph, storage is span-backed: an OrientedGraph either owns its
/// arrays (FromLabels) or is a zero-copy view of a cached orientation
/// inside an mmap'ed `.tlg` container (FromCsrView), so preprocessing can
/// be skipped entirely on reload.

namespace trilist {

/// \brief Relabeled + oriented view of a simple undirected graph.
class OrientedGraph {
 public:
  OrientedGraph() = default;

  /// Builds the oriented graph from `g` and a bijective label assignment.
  /// \param g the undirected graph.
  /// \param labels labels[v] is the new ID of original node v; must be a
  ///        permutation of [0, n).
  /// \param threads concurrency of the build: with threads > 1 the degree
  ///        counting, prefix sums, adjacency fill and row sorting run on a
  ///        thread pool (see src/util/parallel_for.h). The result is
  ///        identical to the serial build for any thread count: fill order
  ///        within a row is nondeterministic but every row is sorted
  ///        afterwards, and a row's content is a set. (The serial build
  ///        fills from sources in ascending label order, so its rows come
  ///        out sorted without a sort pass.)
  static OrientedGraph FromLabels(const Graph& g,
                                  const std::vector<NodeId>& labels,
                                  int threads = 1);

  /// Zero-copy view over externally owned, already validated CSR arrays
  /// (a cached orientation section of a `.tlg` file). `storage` pins the
  /// backing memory. The caller must have verified the orientation
  /// invariants (see binfmt.cpp): out-rows sorted < i, in-rows sorted > i,
  /// original_of a permutation image of [0, n).
  static OrientedGraph FromCsrView(std::span<const size_t> out_offsets,
                                   std::span<const NodeId> out_neighbors,
                                   std::span<const size_t> in_offsets,
                                   std::span<const NodeId> in_neighbors,
                                   std::span<const NodeId> original_of,
                                   std::shared_ptr<const void> storage);

  /// Number of nodes n.
  size_t num_nodes() const {
    return out_offsets_.empty() ? 0 : out_offsets_.size() - 1;
  }
  /// Number of arcs (= undirected edges m).
  size_t num_arcs() const { return out_neighbors_.size(); }

  /// Out-neighbors N+(i): labels smaller than i, sorted ascending.
  /// Forced inline: the listing kernels read a row per outer position.
  [[gnu::always_inline]] std::span<const NodeId> OutNeighbors(
      NodeId i) const {
    return out_neighbors_.subspan(out_offsets_[i],
                                  out_offsets_[i + 1] - out_offsets_[i]);
  }
  /// In-neighbors N-(i): labels larger than i, sorted ascending.
  [[gnu::always_inline]] std::span<const NodeId> InNeighbors(
      NodeId i) const {
    return in_neighbors_.subspan(in_offsets_[i],
                                 in_offsets_[i + 1] - in_offsets_[i]);
  }

  /// Out-degree X_i.
  int64_t OutDegree(NodeId i) const {
    return static_cast<int64_t>(out_offsets_[i + 1] - out_offsets_[i]);
  }
  /// In-degree Y_i.
  int64_t InDegree(NodeId i) const {
    return static_cast<int64_t>(in_offsets_[i + 1] - in_offsets_[i]);
  }
  /// Total degree d_i = X_i + Y_i.
  int64_t TotalDegree(NodeId i) const {
    return OutDegree(i) + InDegree(i);
  }

  /// Arc-existence test y -> x (requires x < y): binary search in N+(y).
  bool HasArc(NodeId from, NodeId to) const;

  /// Original node ID of label i (for reporting triangles in input IDs).
  NodeId OriginalOf(NodeId i) const { return original_of_[i]; }
  /// The label -> original map.
  std::span<const NodeId> original_of() const { return original_of_; }

  /// Out-degree vector (X_1, ..., X_n) indexed by label.
  std::vector<int64_t> OutDegrees() const;
  /// In-degree vector (Y_1, ..., Y_n) indexed by label.
  std::vector<int64_t> InDegrees() const;

  /// Raw CSR arrays, for serialization (offsets have size n+1; neighbor
  /// arrays have size m).
  std::span<const size_t> RawOutOffsets() const { return out_offsets_; }
  std::span<const size_t> RawInOffsets() const { return in_offsets_; }
  std::span<const NodeId> RawOutNeighbors() const { return out_neighbors_; }
  std::span<const NodeId> RawInNeighbors() const { return in_neighbors_; }

 private:
  std::span<const size_t> out_offsets_;
  std::span<const NodeId> out_neighbors_;
  std::span<const size_t> in_offsets_;
  std::span<const NodeId> in_neighbors_;
  std::span<const NodeId> original_of_;
  std::shared_ptr<const void> storage_;  // owns (or pins) the arrays
};

}  // namespace trilist
