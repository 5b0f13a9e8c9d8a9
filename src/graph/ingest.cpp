#include "src/graph/ingest.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "src/graph/edge_text.h"
#include "src/graph/mmap_file.h"
#include "src/obs/trace.h"
#include "src/util/parallel_for.h"

namespace trilist {

Result<IngestedGraph> IngestEdgeList(std::string_view text,
                                     const IngestOptions& options) {
  const int threads = std::max(1, options.threads);
  const char* base = text.data();
  const size_t size = text.size();

  // Cut the input into newline-aligned chunks, one slice per unit of
  // parallelism (over-decomposed so a comment-dense region cannot stall
  // the pool).
  const size_t want_chunks =
      threads == 1 ? 1
                   : std::min<size_t>(static_cast<size_t>(threads) * 4,
                                      std::max<size_t>(1, size / 4096));
  std::vector<size_t> bounds;
  bounds.push_back(0);
  for (size_t c = 1; c < want_chunks; ++c) {
    size_t pos = size * c / want_chunks;
    if (pos <= bounds.back()) continue;
    const void* nl = std::memchr(base + pos, '\n', size - pos);
    if (nl == nullptr) break;
    pos = static_cast<size_t>(static_cast<const char*>(nl) - base) + 1;
    if (pos > bounds.back() && pos < size) bounds.push_back(pos);
  }
  bounds.push_back(size);
  const size_t num_chunks = bounds.size() - 1;

  std::vector<EdgeTextChunk> chunks(num_chunks);
  ParallelFor(threads, num_chunks, [&](size_t c) {
    obs::TraceSpan span("ingest_chunk");
    span.Arg("chunk", static_cast<int64_t>(c));
    span.Arg("bytes", static_cast<int64_t>(bounds[c + 1] - bounds[c]));
    ParseEdgeTextChunk(base + bounds[c], base + bounds[c + 1],
                       &chunks[c]);
    span.Arg("edges", static_cast<int64_t>(chunks[c].records.size()));
  });

  // Fold in input order: the earliest malformed line surfaces with its
  // global line number (chunks before it always parsed to completion).
  EdgeTextTotals totals;
  for (const EdgeTextChunk& r : chunks) {
    TRILIST_RETURN_NOT_OK(totals.Add(r));
  }
  IngestStats stats = totals.stats;

  // Concatenate the per-chunk records (chunk order keeps this
  // deterministic; the later sort makes order irrelevant anyway).
  size_t total_records = 0;
  for (const EdgeTextChunk& r : chunks) total_records += r.records.size();
  std::vector<RawEdgeRecord> records;
  records.reserve(total_records);
  for (EdgeTextChunk& r : chunks) {
    records.insert(records.end(), r.records.begin(), r.records.end());
    r.records.clear();
    r.records.shrink_to_fit();
  }

  // The node-ID universe: sorted distinct endpoints, including the
  // endpoints of dropped self-loops. Input is "compact" when they
  // already form a prefix of the naturals, in which case the original
  // numbering (and any header-declared isolated nodes) is kept.
  size_t total_loop_ids = 0;
  for (const EdgeTextChunk& r : chunks) total_loop_ids += r.loop_ids.size();
  std::vector<uint64_t> ids;
  ids.reserve(records.size() * 2 + total_loop_ids);
  for (const RawEdgeRecord& e : records) {
    ids.push_back(e.first);
    ids.push_back(e.second);
  }
  for (const EdgeTextChunk& r : chunks) {
    ids.insert(ids.end(), r.loop_ids.begin(), r.loop_ids.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const bool compact =
      ids.empty() || (ids.front() == 0 && ids.back() == ids.size() - 1);

  size_t num_nodes = 0;
  std::vector<Edge> edges(records.size());
  if (compact) {
    num_nodes = ids.empty() ? 0 : static_cast<size_t>(ids.back()) + 1;
    if (totals.has_header) {
      num_nodes = std::max<size_t>(num_nodes, totals.header_nodes);
    }
    if (num_nodes >= std::numeric_limits<NodeId>::max()) {
      return Status::OutOfRange("graph too large for 32-bit node IDs: " +
                                std::to_string(num_nodes) + " nodes");
    }
    for (size_t i = 0; i < records.size(); ++i) {
      NodeId a = static_cast<NodeId>(records[i].first);
      NodeId b = static_cast<NodeId>(records[i].second);
      if (a > b) std::swap(a, b);
      edges[i] = {a, b};
    }
  } else {
    stats.relabeled = true;
    num_nodes = ids.size();
    if (num_nodes >= std::numeric_limits<NodeId>::max()) {
      return Status::OutOfRange("graph too large for 32-bit node IDs: " +
                                std::to_string(num_nodes) + " nodes");
    }
    // Relabel by rank of the original ID (binary search into `ids`),
    // parallel over records.
    const size_t relabel_chunks =
        std::max<size_t>(1, static_cast<size_t>(threads) * 4);
    const size_t chunk_len =
        (records.size() + relabel_chunks - 1) / relabel_chunks;
    ParallelFor(threads, relabel_chunks, [&](size_t c) {
      const size_t lo = std::min(records.size(), c * chunk_len);
      const size_t hi = std::min(records.size(), lo + chunk_len);
      for (size_t i = lo; i < hi; ++i) {
        const auto rank = [&](uint64_t id) {
          return static_cast<NodeId>(
              std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
        };
        NodeId a = rank(records[i].first);
        NodeId b = rank(records[i].second);
        if (a > b) std::swap(a, b);
        edges[i] = {a, b};
      }
    });
  }
  records.clear();
  records.shrink_to_fit();

  // Dedupe: canonical (min, max) pairs, sorted; repeats in either
  // direction collapse to one edge.
  std::sort(edges.begin(), edges.end());
  const auto last = std::unique(edges.begin(), edges.end());
  stats.duplicates_dropped = static_cast<size_t>(edges.end() - last);
  edges.erase(last, edges.end());

  auto graph = Graph::FromEdges(num_nodes, edges);
  if (!graph.ok()) return graph.status();

  IngestedGraph out;
  out.graph = std::move(graph).ValueOrDie();
  if (compact) {
    out.original_id.resize(num_nodes);
    std::iota(out.original_id.begin(), out.original_id.end(), 0u);
  } else {
    out.original_id = std::move(ids);
  }
  stats.num_nodes = out.graph.num_nodes();
  stats.num_edges = out.graph.num_edges();
  out.stats = stats;
  return out;
}

Result<IngestedGraph> IngestEdgeListFile(const std::string& path,
                                         const IngestOptions& options) {
  auto file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  const std::span<const std::byte> bytes = file->bytes();
  const std::string_view text(
      reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return IngestEdgeList(text, options);
}

}  // namespace trilist
