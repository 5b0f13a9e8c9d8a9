#pragma once

#include <cstdint>
#include <vector>

#include "src/algo/fundamental.h"  // OpCounts
#include "src/algo/triangle_sink.h"
#include "src/graph/oriented_graph.h"

/// \file partitioned.h
/// Partitioned (out-of-core style) execution of the scanning edge
/// iterators — the extension direction the paper defers to its companion
/// work ("deciding between E1 and E2 requires modeling I/O complexity
/// under a specific graph-partitioning scheme", Section 2.3; "design of
/// better external-memory partitioning schemes, and modeling of I/O
/// complexity", Section 8).
///
/// Model: the oriented graph's out-list CSR lives on "disk". The label
/// space is split into K contiguous ranges. One *pass* per partition:
///
///   * E1-style (local = first-visited z): load partition P's out-lists
///     into RAM, then stream every node's out-list once in label order;
///     for each streamed y, complete wedges whose apex z lies in P
///     (z in N-(y) ∩ P, both lists now available).
///   * E2-style (local = middle y): load P's out-lists, stream every z's
///     out-list; for each streamed z, process its out-neighbors y that
///     fall in P.
///
/// Both produce exactly the triangles of in-memory E1/E2 and the same
/// CPU-cost counters; what changes is the I/O ledger: resident bytes are
/// loaded once per partition (sum = graph size), streamed bytes cost a
/// full scan per pass (K * graph size). The IoStats struct exposes this
/// ledger so partitioning policies can be compared quantitatively.

namespace trilist {

/// I/O ledger of a partitioned run (bytes of adjacency data moved).
struct IoStats {
  int64_t passes = 0;          ///< number of partitions processed
  int64_t bytes_loaded = 0;    ///< resident partition loads (sum = |G|)
  int64_t bytes_streamed = 0;  ///< sequential scan traffic (= passes * |G|)

  int64_t TotalBytes() const { return bytes_loaded + bytes_streamed; }
};

/// Contiguous label-range partitioning of [0, n) into at most K ranges
/// balanced by out-list volume (not node count), mirroring how disk pages
/// are sized by bytes.
class Partitioning {
 public:
  /// \param g oriented graph; \param max_partitions K (>= 1).
  Partitioning(const OrientedGraph& g, size_t max_partitions);

  /// Builds the partitioning that fits a RAM budget of `budget_bytes`
  /// for the resident lists (K = ceil(graph bytes / budget)).
  static Partitioning ForMemoryBudget(const OrientedGraph& g,
                                      int64_t budget_bytes);

  /// Number of ranges actually created (<= requested K).
  size_t num_partitions() const { return bounds_.size() - 1; }
  /// Label range of partition p: [lower(p), upper(p)).
  NodeId lower(size_t p) const { return bounds_[p]; }
  NodeId upper(size_t p) const { return bounds_[p + 1]; }

 private:
  explicit Partitioning(std::vector<NodeId> bounds)
      : bounds_(std::move(bounds)) {}
  std::vector<NodeId> bounds_;  // size num_partitions + 1
};

/// Watches a partitioned run pass by pass: BeginPass(lo, hi) when
/// partition [lo, hi) becomes resident, AfterRow(v) once the streamed row
/// v is done with (rows arrive in label order), EndPass() after the last
/// row. A budgeted run over a demand-paged `.tlg` (ListOnOriented in
/// src/run/runner.h) attaches an ooc::Evictor (src/ooc/evictor.h) here;
/// every other partitioned run passes none.
class PassObserver {
 public:
  virtual ~PassObserver() = default;
  virtual void BeginPass(NodeId lo, NodeId hi) = 0;
  virtual void AfterRow(NodeId v) = 0;
  virtual void EndPass() = 0;
};

/// Partitioned E1: identical output and CPU counters to the in-memory E1
/// (RunMethod), plus the I/O ledger in *io (may be null). `observer` (may
/// be null) sees every pass.
OpCounts RunPartitionedE1(const OrientedGraph& g, const Partitioning& parts,
                          TriangleSink* sink, IoStats* io,
                          PassObserver* observer = nullptr);

/// Partitioned E2: identical output and CPU counters to the in-memory E2.
OpCounts RunPartitionedE2(const OrientedGraph& g, const Partitioning& parts,
                          TriangleSink* sink, IoStats* io,
                          PassObserver* observer = nullptr);

}  // namespace trilist
