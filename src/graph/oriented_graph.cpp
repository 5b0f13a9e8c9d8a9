#include "src/graph/oriented_graph.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "src/obs/trace.h"
#include "src/util/parallel_for.h"
#include "src/util/status.h"

namespace trilist {

namespace {

/// Owned backing storage for an OrientedGraph built from labels.
struct OwnedArrays {
  std::vector<size_t> out_offsets;
  std::vector<NodeId> out_neighbors;
  std::vector<size_t> in_offsets;
  std::vector<NodeId> in_neighbors;
  std::vector<NodeId> original_of;
};

/// Parallel CSR build: counting with per-label atomic counters, blocked
/// parallel prefix sums, fill through atomic row cursors, then a parallel
/// sort of every row. See FromLabels' header comment for the determinism
/// argument.
void BuildAdjacencyParallel(const Graph& g,
                            const std::vector<NodeId>& labels, int threads,
                            std::vector<size_t>* out_offsets,
                            std::vector<NodeId>* out_neighbors,
                            std::vector<size_t>* in_offsets,
                            std::vector<NodeId>* in_neighbors) {
  const size_t n = g.num_nodes();
  ThreadPool pool(threads);
  const auto num_chunks =
      static_cast<size_t>(pool.num_threads()) * 8;
  const size_t chunk_len = (n + num_chunks - 1) / num_chunks;
  const auto chunk_range = [&](size_t c) {
    const size_t lo = c * chunk_len;
    return std::pair<size_t, size_t>{std::min(n, lo),
                                     std::min(n, lo + chunk_len)};
  };

  // Counting pass: relaxed fetch_add per arc; sums are order-independent.
  std::unique_ptr<std::atomic<size_t>[]> out_count(
      new std::atomic<size_t>[n]);
  std::unique_ptr<std::atomic<size_t>[]> in_count(
      new std::atomic<size_t>[n]);
  pool.ParallelFor(num_chunks, [&](size_t c) {
    const auto [lo, hi] = chunk_range(c);
    for (size_t i = lo; i < hi; ++i) {
      out_count[i].store(0, std::memory_order_relaxed);
      in_count[i].store(0, std::memory_order_relaxed);
    }
  });
  pool.ParallelFor(num_chunks, [&](size_t c) {
    const auto [lo, hi] = chunk_range(c);
    for (size_t v = lo; v < hi; ++v) {
      const NodeId lv = labels[v];
      for (NodeId w : g.Neighbors(static_cast<NodeId>(v))) {
        if (labels[w] < lv) {
          out_count[lv].fetch_add(1, std::memory_order_relaxed);
        } else {
          in_count[lv].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  // Prefix sums: offsets[i + 1] = sum of counts[0..i].
  out_offsets->assign(n + 1, 0);
  in_offsets->assign(n + 1, 0);
  pool.ParallelFor(num_chunks, [&](size_t c) {
    const auto [lo, hi] = chunk_range(c);
    for (size_t i = lo; i < hi; ++i) {
      (*out_offsets)[i + 1] = out_count[i].load(std::memory_order_relaxed);
      (*in_offsets)[i + 1] = in_count[i].load(std::memory_order_relaxed);
    }
  });
  ParallelInclusivePrefixSum(&pool, out_offsets);
  ParallelInclusivePrefixSum(&pool, in_offsets);
  out_neighbors->resize((*out_offsets)[n]);
  in_neighbors->resize((*in_offsets)[n]);

  // Fill pass: the counters now serve as atomic row cursors.
  pool.ParallelFor(num_chunks, [&](size_t c) {
    const auto [lo, hi] = chunk_range(c);
    for (size_t i = lo; i < hi; ++i) {
      out_count[i].store((*out_offsets)[i], std::memory_order_relaxed);
      in_count[i].store((*in_offsets)[i], std::memory_order_relaxed);
    }
  });
  pool.ParallelFor(num_chunks, [&](size_t c) {
    const auto [lo, hi] = chunk_range(c);
    for (size_t v = lo; v < hi; ++v) {
      const NodeId lv = labels[v];
      for (NodeId w : g.Neighbors(static_cast<NodeId>(v))) {
        const NodeId lw = labels[w];
        if (lw < lv) {
          const size_t slot =
              out_count[lv].fetch_add(1, std::memory_order_relaxed);
          (*out_neighbors)[slot] = lw;
        } else {
          const size_t slot =
              in_count[lv].fetch_add(1, std::memory_order_relaxed);
          (*in_neighbors)[slot] = lw;
        }
      }
    }
  });

  // Sort each row ascending by label (restores determinism).
  pool.ParallelFor(num_chunks, [&](size_t c) {
    const auto [lo, hi] = chunk_range(c);
    for (size_t i = lo; i < hi; ++i) {
      std::sort(out_neighbors->begin() +
                    static_cast<int64_t>((*out_offsets)[i]),
                out_neighbors->begin() +
                    static_cast<int64_t>((*out_offsets)[i + 1]));
      std::sort(in_neighbors->begin() +
                    static_cast<int64_t>((*in_offsets)[i]),
                in_neighbors->begin() +
                    static_cast<int64_t>((*in_offsets)[i + 1]));
    }
  });
}

}  // namespace

OrientedGraph OrientedGraph::FromLabels(const Graph& g,
                                        const std::vector<NodeId>& labels,
                                        int threads) {
  const size_t n = g.num_nodes();
  TRILIST_DCHECK(labels.size() == n);
  auto owned = std::make_shared<OwnedArrays>();
  if (threads > 1 && n > 0) {
    owned->original_of.assign(n, 0);
    // labels is a bijection, so these writes are disjoint.
    ParallelFor(threads, static_cast<size_t>(threads), [&](size_t c) {
      const size_t chunk =
          (n + static_cast<size_t>(threads) - 1) /
          static_cast<size_t>(threads);
      const size_t lo = std::min(n, c * chunk);
      const size_t hi = std::min(n, lo + chunk);
      for (size_t v = lo; v < hi; ++v) {
        TRILIST_DCHECK(labels[v] < n);
        owned->original_of[labels[v]] = static_cast<NodeId>(v);
      }
    });
    {
      obs::TraceSpan span("orient_build");
      span.Arg("threads", static_cast<int64_t>(threads));
      span.Arg("nodes", static_cast<int64_t>(n));
      BuildAdjacencyParallel(g, labels, threads, &owned->out_offsets,
                             &owned->out_neighbors, &owned->in_offsets,
                             &owned->in_neighbors);
    }
    OrientedGraph out;
    out.out_offsets_ = owned->out_offsets;
    out.out_neighbors_ = owned->out_neighbors;
    out.in_offsets_ = owned->in_offsets;
    out.in_neighbors_ = owned->in_neighbors;
    out.original_of_ = owned->original_of;
    out.storage_ = std::move(owned);
    return out;
  }
  owned->original_of.assign(n, 0);
  for (size_t v = 0; v < n; ++v) {
    TRILIST_DCHECK(labels[v] < n);
    owned->original_of[labels[v]] = static_cast<NodeId>(v);
  }

  // Counting pass over arcs in label space.
  owned->out_offsets.assign(n + 1, 0);
  owned->in_offsets.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    const NodeId lv = labels[v];
    for (NodeId w : g.Neighbors(static_cast<NodeId>(v))) {
      const NodeId lw = labels[w];
      if (lw < lv) {
        ++owned->out_offsets[lv + 1];
      } else {
        ++owned->in_offsets[lv + 1];
      }
    }
  }
  for (size_t i = 1; i <= n; ++i) {
    owned->out_offsets[i] += owned->out_offsets[i - 1];
    owned->in_offsets[i] += owned->in_offsets[i - 1];
  }
  owned->out_neighbors.resize(owned->out_offsets[n]);
  owned->in_neighbors.resize(owned->in_offsets[n]);

  // Fill pass, sources in ascending label order: label lw reaches each
  // neighbour's row after every smaller label has, so every row is filled
  // already sorted ascending and needs no sort pass.
  std::vector<size_t> out_cursor(owned->out_offsets.begin(),
                                 owned->out_offsets.end() - 1);
  std::vector<size_t> in_cursor(owned->in_offsets.begin(),
                                owned->in_offsets.end() - 1);
  for (size_t lw = 0; lw < n; ++lw) {
    const NodeId w = owned->original_of[lw];
    for (NodeId v : g.Neighbors(w)) {
      const NodeId lv = labels[v];
      if (lw < lv) {
        owned->out_neighbors[out_cursor[lv]++] = static_cast<NodeId>(lw);
      } else {
        owned->in_neighbors[in_cursor[lv]++] = static_cast<NodeId>(lw);
      }
    }
  }
  OrientedGraph out;
  out.out_offsets_ = owned->out_offsets;
  out.out_neighbors_ = owned->out_neighbors;
  out.in_offsets_ = owned->in_offsets;
  out.in_neighbors_ = owned->in_neighbors;
  out.original_of_ = owned->original_of;
  out.storage_ = std::move(owned);
  return out;
}

OrientedGraph OrientedGraph::FromCsrView(
    std::span<const size_t> out_offsets,
    std::span<const NodeId> out_neighbors,
    std::span<const size_t> in_offsets,
    std::span<const NodeId> in_neighbors,
    std::span<const NodeId> original_of,
    std::shared_ptr<const void> storage) {
  TRILIST_DCHECK(out_offsets.size() == in_offsets.size());
  TRILIST_DCHECK(!out_offsets.empty());
  TRILIST_DCHECK(out_offsets.back() == out_neighbors.size());
  TRILIST_DCHECK(in_offsets.back() == in_neighbors.size());
  OrientedGraph out;
  out.out_offsets_ = out_offsets;
  out.out_neighbors_ = out_neighbors;
  out.in_offsets_ = in_offsets;
  out.in_neighbors_ = in_neighbors;
  out.original_of_ = original_of;
  out.storage_ = std::move(storage);
  return out;
}

bool OrientedGraph::HasArc(NodeId from, NodeId to) const {
  if (to >= from) return false;
  const auto list = OutNeighbors(from);
  return std::binary_search(list.begin(), list.end(), to);
}

std::vector<int64_t> OrientedGraph::OutDegrees() const {
  std::vector<int64_t> x(num_nodes());
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = OutDegree(static_cast<NodeId>(i));
  }
  return x;
}

std::vector<int64_t> OrientedGraph::InDegrees() const {
  std::vector<int64_t> y(num_nodes());
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = InDegree(static_cast<NodeId>(i));
  }
  return y;
}

}  // namespace trilist
