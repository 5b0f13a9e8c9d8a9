#include "src/algo/parallel_engine.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "src/algo/fundamental.h"
#include "src/algo/registry.h"
#include "src/obs/trace.h"
#include "src/util/parallel_for.h"

namespace trilist {

namespace {

/// Work-chunk over-decomposition: the planner cuts the iteration space
/// into `threads * kChunksPerThread` equal-cost chunks so a straggler
/// chunk cannot idle the rest of the pool.
constexpr size_t kChunksPerThread = 8;

/// Cuts the concatenated position space into `num_chunks` contiguous
/// slices of near-equal total weight. Returns num_chunks + 1 cuts with
/// cuts[0] = begin and cuts[num_chunks] = end; chunks may be empty when
/// the graph has fewer positions than chunks. Deterministic: depends only
/// on the graph and the chunk count. A position weighs its PositionWeight
/// plus 1, so zero-cost positions still advance chunk boundaries.
std::vector<Cut> PlanCuts(Method m, const OrientedGraph& g,
                          size_t num_chunks) {
  const size_t n = g.num_nodes();
  unsigned __int128 total = 0;
  for (size_t v = 0; v < n; ++v) {
    const auto node = static_cast<NodeId>(v);
    const size_t len = OuterLen(m, g, node);
    for (size_t p = 0; p < len; ++p) {
      total += static_cast<unsigned __int128>(
          PositionWeight(m, g, node, p) + 1);
    }
  }
  std::vector<Cut> cuts;
  cuts.reserve(num_chunks + 1);
  cuts.push_back(Cut{0, 0});
  unsigned __int128 acc = 0;
  size_t next_boundary = 1;  // boundary k sits at weight >= k*total/chunks
  for (size_t v = 0; v < n && cuts.size() < num_chunks; ++v) {
    const auto node = static_cast<NodeId>(v);
    const size_t len = OuterLen(m, g, node);
    for (size_t p = 0; p < len && cuts.size() < num_chunks; ++p) {
      acc += static_cast<unsigned __int128>(
          PositionWeight(m, g, node, p) + 1);
      while (cuts.size() < num_chunks &&
             acc * num_chunks >= total * next_boundary) {
        // The position after (v, p) starts the next chunk.
        if (p + 1 < len) {
          cuts.push_back(Cut{node, p + 1});
        } else {
          cuts.push_back(Cut{static_cast<NodeId>(v + 1), 0});
        }
        ++next_boundary;
      }
    }
  }
  while (cuts.size() <= num_chunks) {
    cuts.push_back(Cut{static_cast<NodeId>(n), 0});
  }
  return cuts;
}

/// The markers of the in-flight chunks of a lookup edge iterator (n > 0):
/// a chunk takes a free one, or makes one when all are in use, and gives
/// it back, so there are never more than the pool's threads. For the
/// other methods (n = 0) every marker is null.
class MarkerPool {
 public:
  explicit MarkerPool(size_t n) : n_(n) {}

  std::unique_ptr<Marker> Take() {
    if (n_ == 0) return nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<Marker> marker = std::move(free_.back());
        free_.pop_back();
        return marker;
      }
    }
    return std::make_unique<Marker>(n_);
  }

  void Return(std::unique_ptr<Marker> marker) {
    if (marker == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(marker));
  }

 private:
  size_t n_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Marker>> free_;
};

/// Field-wise accumulation; all counters are exact integer sums over a
/// partition of the serial iteration space, so order cannot matter.
void AddInto(OpCounts* total, const OpCounts& part) {
  total->candidate_checks += part.candidate_checks;
  total->local_scans += part.local_scans;
  total->remote_scans += part.remote_scans;
  total->merge_comparisons += part.merge_comparisons;
  total->hash_inserts += part.hash_inserts;
  total->lookups += part.lookups;
  total->binary_searches += part.binary_searches;
  total->triangles += part.triangles;
}

}  // namespace

OpCounts RunMethodParallel(Method m, const OrientedGraph& g,
                           const DirectedEdgeSet& arcs, TriangleSink* sink,
                           const ExecPolicy& policy) {
  return RunMethod(m, g, arcs, sink, policy);
}

OpCounts RunParallel(Method m, const OrientedGraph& g,
                     const DirectedEdgeSet* arcs, TriangleSink* sink,
                     const ExecPolicy& policy) {
  const int threads = std::max(1, policy.threads);
  const size_t num_chunks =
      static_cast<size_t>(threads) * kChunksPerThread;
  const std::vector<Cut> cuts = PlanCuts(m, g, num_chunks);
  // A counting sink needs no triangles: each chunk keeps only its
  // OpCounts, and the sink is credited once with the exact total. Any
  // other sink gets every chunk's triangles replayed in chunk order.
  CountingSink* counter = dynamic_cast<CountingSink*>(sink);
  std::vector<OpCounts> ops(num_chunks);
  std::vector<CollectingSink> buffers(counter != nullptr ? 0 : num_chunks);
  MarkerPool markers(MethodFamily(m) == Family::kLookupEdgeIterator
                         ? g.num_nodes()
                         : 0);
  ThreadPool pool(threads);
  pool.ParallelFor(num_chunks, [&](size_t c) {
    obs::TraceSpan span("chunk");
    span.Arg("method", MethodName(m));
    span.Arg("shard", static_cast<int64_t>(c));
    span.Arg("v_begin", static_cast<int64_t>(cuts[c].node));
    std::unique_ptr<Marker> marker = markers.Take();
    ops[c] = RunSlice(m, g, arcs, cuts[c], cuts[c + 1],
                      counter != nullptr ? nullptr : &buffers[c],
                      policy.bitmap_index.get(), marker.get());
    markers.Return(std::move(marker));
    span.Arg("ops", ops[c].PaperCost());
  });
  OpCounts total;
  for (const OpCounts& part : ops) AddInto(&total, part);
  if (counter != nullptr) {
    counter->Add(static_cast<uint64_t>(total.triangles));
  } else {
    // Deterministic merge: chunk order is serial order.
    for (const CollectingSink& chunk : buffers) {
      for (const Triangle& t : chunk.triangles()) {
        sink->Consume(t.x, t.y, t.z);
      }
    }
  }
  return total;
}

}  // namespace trilist
