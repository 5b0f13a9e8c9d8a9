#include "src/ooc/paged_count.h"

#include <algorithm>

#include "src/algo/triangle_sink.h"
#include "src/graph/binfmt.h"

namespace trilist::ooc {

namespace {

constexpr int64_t kBytesPerId = static_cast<int64_t>(sizeof(NodeId));

/// The pass observer that makes a partitioned run paged: it protects the
/// resident partition's out-lists for the whole pass, drops the streamed
/// rows behind the cursor every `window_bytes` of traffic, and at the end
/// of a pass releases the rest of the window and the old partition (the
/// next pass restarts from label 0). All pointers live inside the mapped
/// file.
class Evictor final : public PassObserver {
 public:
  Evictor(const OrientedGraph& g, const MmapFile* file, int64_t window_bytes,
          int64_t* evictions)
      : g_(g),
        file_(file),
        base_(reinterpret_cast<const char*>(file->bytes().data())),
        window_bytes_(window_bytes),
        evictions_(evictions) {}

  void BeginPass(NodeId lo, NodeId hi) override {
    keep_begin_ = OutRow(lo);
    keep_end_ = OutRow(hi);
    out_mark_ = OutRow(0);
    in_mark_ = InRow(0);
    pending_ = 0;
  }

  void AfterRow(NodeId v) override {
    pending_ += (g_.OutDegree(v) + g_.InDegree(v)) * kBytesPerId;
    if (pending_ < window_bytes_) return;
    // Drop the rows before v; v goes with the next drop or at EndPass.
    Evict(out_mark_, OutRow(v));
    Evict(in_mark_, InRow(v));
    out_mark_ = OutRow(v);
    in_mark_ = InRow(v);
    pending_ = 0;
  }

  void EndPass() override {
    const auto n = static_cast<NodeId>(g_.num_nodes());
    Evict(out_mark_, OutRow(n));
    Evict(in_mark_, InRow(n));
    const char* keep_begin = keep_begin_;
    const char* keep_end = keep_end_;
    keep_begin_ = keep_end_ = nullptr;
    Evict(keep_begin, keep_end);
  }

 private:
  const char* OutRow(NodeId v) const {
    return reinterpret_cast<const char*>(g_.RawOutNeighbors().data() +
                                         g_.RawOutOffsets()[v]);
  }
  const char* InRow(NodeId v) const {
    return reinterpret_cast<const char*>(g_.RawInNeighbors().data() +
                                         g_.RawInOffsets()[v]);
  }

  /// Evicts [lo, hi) except its overlap with the protected partition.
  void Evict(const char* lo, const char* hi) {
    if (keep_begin_ < keep_end_ && lo < keep_end_ && keep_begin_ < hi) {
      EvictBytes(lo, std::min(hi, keep_begin_));
      EvictBytes(std::max(lo, keep_end_), hi);
      return;
    }
    EvictBytes(lo, hi);
  }

  void EvictBytes(const char* lo, const char* hi) {
    if (lo >= hi) return;
    file_->Evict(static_cast<size_t>(lo - base_),
                 static_cast<size_t>(hi - lo));
    ++*evictions_;
  }

  const OrientedGraph& g_;
  const MmapFile* file_;
  const char* base_;
  int64_t window_bytes_;
  int64_t* evictions_;
  const char* keep_begin_ = nullptr;
  const char* keep_end_ = nullptr;
  const char* out_mark_ = nullptr;  // streamed but not yet dropped
  const char* in_mark_ = nullptr;
  int64_t pending_ = 0;  // bytes streamed since the last drop
};

}  // namespace

Result<OocCountResult> OocCountTlg(const std::string& path,
                                   const OocCountOptions& options) {
  TlgLoadOptions load;
  load.paged = true;
  auto file_or = TlgFile::Open(path, load);
  if (!file_or.ok()) return file_or.status();
  const TlgFile file = std::move(file_or).ValueOrDie();
  const OrientedGraph* og = file.FindOrientation(options.spec);
  if (og == nullptr) {
    return Status::InvalidArgument(
        path + " does not embed the requested orientation; re-run "
        "`trilist_cli convert` with matching --orient flags");
  }
  const int64_t budget =
      std::max<int64_t>(options.mem_budget_bytes, 1ll << 20);
  // Half the budget holds the resident partition; the streamed window
  // between evictions gets an eighth, leaving the rest as headroom for
  // the node-indexed sections (offsets, original_of) that every pass
  // touches and that cannot be evicted while the pass runs.
  const Partitioning parts =
      Partitioning::ForMemoryBudget(*og, budget / 2);
  const int64_t window = std::max<int64_t>(budget / 8, 1ll << 20);
  OocCountResult result;
  result.mmap_backed = file.backing()->is_mapped();
  Evictor evictor(*og, file.backing(), window, &result.evictions);
  CountingSink sink;
  result.ops =
      options.use_e2
          ? RunPartitionedE2(*og, parts, &sink, &result.io, &evictor)
          : RunPartitionedE1(*og, parts, &sink, &result.io, &evictor);
  return result;
}

}  // namespace trilist::ooc
