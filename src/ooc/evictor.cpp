#include "src/ooc/evictor.h"

#include <algorithm>

namespace trilist::ooc {

namespace {

constexpr int64_t kBytesPerId = static_cast<int64_t>(sizeof(NodeId));

}  // namespace

Evictor::Evictor(const OrientedGraph& g, const MmapFile* file,
                 int64_t window_bytes)
    : g_(g),
      file_(file),
      base_(reinterpret_cast<const char*>(file->bytes().data())),
      window_bytes_(window_bytes) {}

void Evictor::BeginPass(NodeId lo, NodeId hi) {
  keep_begin_ = OutRow(lo);
  keep_end_ = OutRow(hi);
  out_mark_ = OutRow(0);
  in_mark_ = InRow(0);
  pending_ = 0;
}

void Evictor::AfterRow(NodeId v) {
  pending_ += (g_.OutDegree(v) + g_.InDegree(v)) * kBytesPerId;
  if (pending_ < window_bytes_) return;
  // Drop the rows before v; v goes with the next drop or at EndPass.
  Evict(out_mark_, OutRow(v));
  Evict(in_mark_, InRow(v));
  out_mark_ = OutRow(v);
  in_mark_ = InRow(v);
  pending_ = 0;
}

void Evictor::EndPass() {
  const auto n = static_cast<NodeId>(g_.num_nodes());
  Evict(out_mark_, OutRow(n));
  Evict(in_mark_, InRow(n));
  const char* keep_begin = keep_begin_;
  const char* keep_end = keep_end_;
  keep_begin_ = keep_end_ = nullptr;
  Evict(keep_begin, keep_end);
}

const char* Evictor::OutRow(NodeId v) const {
  return reinterpret_cast<const char*>(g_.RawOutNeighbors().data() +
                                       g_.RawOutOffsets()[v]);
}

const char* Evictor::InRow(NodeId v) const {
  return reinterpret_cast<const char*>(g_.RawInNeighbors().data() +
                                       g_.RawInOffsets()[v]);
}

/// Evicts [lo, hi) except its overlap with the protected partition.
void Evictor::Evict(const char* lo, const char* hi) {
  if (keep_begin_ < keep_end_ && lo < keep_end_ && keep_begin_ < hi) {
    EvictBytes(lo, std::min(hi, keep_begin_));
    EvictBytes(std::max(lo, keep_end_), hi);
    return;
  }
  EvictBytes(lo, hi);
}

void Evictor::EvictBytes(const char* lo, const char* hi) {
  if (lo >= hi) return;
  file_->Evict(static_cast<size_t>(lo - base_),
               static_cast<size_t>(hi - lo));
  ++evictions_;
}

}  // namespace trilist::ooc
