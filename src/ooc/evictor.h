#pragma once

#include <cstdint>

#include "src/graph/mmap_file.h"
#include "src/graph/oriented_graph.h"
#include "src/xm/partitioned.h"  // PassObserver

/// \file evictor.h
/// The pass observer that makes a partitioned run paged. When the runner
/// lists a `.tlg` container opened demand-paged (TlgLoadOptions::paged)
/// under a memory budget, the src/xm partitioned E1/E2 executor runs over
/// the mapped sections with this observer attached: MADV_DONTNEED chases
/// the stream cursor, so pages behind it are handed back to the kernel
/// instead of accumulating in RSS.
///
/// With it the IoStats ledger of the executor (bytes loaded per
/// partition, bytes streamed per pass) is actual page traffic: the
/// resident partition's out-lists stay mapped for the whole pass while
/// every streamed list is touched once and then evicted. Triangle counts
/// and CPU OpCounts are those of the in-memory E1/E2: the loop is
/// the xm executor's; only page residency differs.

namespace trilist::ooc {

/// Protects the resident partition's out-lists for the whole pass, drops
/// the streamed rows behind the cursor every `window_bytes` of traffic,
/// and at the end of a pass releases the rest of the window and the old
/// partition (the next pass restarts from label 0). `g`'s arrays must
/// live inside `file`'s mapping; on a read() fallback the evictions are
/// no-ops.
class Evictor final : public PassObserver {
 public:
  Evictor(const OrientedGraph& g, const MmapFile* file,
          int64_t window_bytes);

  void BeginPass(NodeId lo, NodeId hi) override;
  void AfterRow(NodeId v) override;
  void EndPass() override;

  /// MADV_DONTNEED calls issued so far.
  int64_t evictions() const { return evictions_; }

 private:
  const char* OutRow(NodeId v) const;
  const char* InRow(NodeId v) const;
  void Evict(const char* lo, const char* hi);
  void EvictBytes(const char* lo, const char* hi);

  const OrientedGraph& g_;
  const MmapFile* file_;
  const char* base_;
  int64_t window_bytes_;
  int64_t evictions_ = 0;
  const char* keep_begin_ = nullptr;
  const char* keep_end_ = nullptr;
  const char* out_mark_ = nullptr;  // streamed but not yet dropped
  const char* in_mark_ = nullptr;
  int64_t pending_ = 0;  // bytes streamed since the last drop
};

}  // namespace trilist::ooc
